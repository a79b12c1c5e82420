#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>

#include "util/memory_tracker.h"
#include "util/random.h"
#include "util/scratch_arena.h"
#include "util/status.h"
#include "util/thread_safe_queue.h"
#include "util/timer.h"

namespace uot {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad block size");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad block size");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad block size");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto inner = [](bool fail) {
    return fail ? Status::Internal("boom") : Status::OK();
  };
  auto outer = [&](bool fail) -> Status {
    UOT_RETURN_IF_ERROR(inner(fail));
    return Status::OK();
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_EQ(outer(true).code(), StatusCode::kInternal);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.Uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Random rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, BernoulliFrequency) {
  Random rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RandomTest, AlphaStringFormat) {
  Random rng(3);
  const std::string s = rng.AlphaString(12);
  EXPECT_EQ(s.size(), 12u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(RandomTest, ZipfBoundsAndSkew) {
  Random rng(29);
  int64_t low_bucket = 0;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.Zipf(1000, 0.9);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 1000);
    if (v <= 10) ++low_bucket;
  }
  // With theta=0.9 the head is much heavier than uniform (1%).
  EXPECT_GT(low_bucket, 1000);
}

TEST(MemoryTrackerTest, TracksCurrentAndPeak) {
  MemoryTracker t;
  t.Allocate(MemoryCategory::kHashTable, 100);
  t.Allocate(MemoryCategory::kHashTable, 50);
  EXPECT_EQ(t.Current(MemoryCategory::kHashTable), 150);
  t.Release(MemoryCategory::kHashTable, 120);
  EXPECT_EQ(t.Current(MemoryCategory::kHashTable), 30);
  EXPECT_EQ(t.Peak(MemoryCategory::kHashTable), 150);
  EXPECT_EQ(t.Current(MemoryCategory::kBaseTable), 0);
}

TEST(MemoryTrackerTest, CategoriesAreIndependent) {
  MemoryTracker t;
  t.Allocate(MemoryCategory::kBaseTable, 10);
  t.Allocate(MemoryCategory::kTemporaryTable, 20);
  t.Allocate(MemoryCategory::kHashTable, 30);
  t.Allocate(MemoryCategory::kOther, 40);
  EXPECT_EQ(t.TotalCurrent(), 100);
  EXPECT_EQ(t.Peak(MemoryCategory::kTemporaryTable), 20);
}

TEST(MemoryTrackerTest, ResetPeaksRebasesToCurrent) {
  MemoryTracker t;
  t.Allocate(MemoryCategory::kHashTable, 1000);
  t.Release(MemoryCategory::kHashTable, 900);
  t.ResetPeaks();
  EXPECT_EQ(t.Peak(MemoryCategory::kHashTable), 100);
  t.Allocate(MemoryCategory::kHashTable, 50);
  EXPECT_EQ(t.Peak(MemoryCategory::kHashTable), 150);
}

TEST(MemoryTrackerTest, ConcurrentUpdatesBalance) {
  MemoryTracker t;
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t] {
      for (int j = 0; j < kIters; ++j) {
        t.Allocate(MemoryCategory::kOther, 8);
        t.Release(MemoryCategory::kOther, 8);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.Current(MemoryCategory::kOther), 0);
  EXPECT_GE(t.Peak(MemoryCategory::kOther), 8);
}

TEST(ThreadSafeQueueTest, FifoOrder) {
  ThreadSafeQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(ThreadSafeQueueTest, TryPopEmptyReturnsNullopt) {
  ThreadSafeQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(9);
  EXPECT_EQ(q.TryPop().value(), 9);
}

TEST(ThreadSafeQueueTest, CloseWakesConsumers) {
  ThreadSafeQueue<int> q;
  std::atomic<int> drained{0};
  std::thread consumer([&] {
    while (q.Pop().has_value()) drained.fetch_add(1);
  });
  q.Push(1);
  q.Push(2);
  q.Close();
  consumer.join();
  EXPECT_EQ(drained.load(), 2);
}

TEST(ThreadSafeQueueTest, ManyProducersManyConsumers) {
  ThreadSafeQueue<int> q;
  constexpr int kProducers = 4, kPerProducer = 1000;
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) sum.fetch_add(*v);
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.Push(i);
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(sum.load(),
            int64_t{kProducers} * kPerProducer * (kPerProducer + 1) / 2);
}

TEST(ThreadSafeQueueTest, PushAfterCloseIsRejected) {
  ThreadSafeQueue<int> q;
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.Push(1));
  q.Close();
  EXPECT_TRUE(q.closed());
  // Post-close contract: both enqueue paths reject and report it; the
  // item is dropped, never half-enqueued.
  EXPECT_FALSE(q.Push(2));
  EXPECT_FALSE(q.PushFront(3));
  EXPECT_EQ(q.Size(), 1u);
  // Items accepted before the close still drain in order...
  EXPECT_EQ(q.Pop().value(), 1);
  // ...and then the queue reports end-of-stream, not the rejected items.
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(ThreadSafeQueueTest, PushFrontOvertakesPush) {
  ThreadSafeQueue<int> q;
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.PushFront(99));
  EXPECT_EQ(q.Pop().value(), 99);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(ThreadSafeQueueTest, RacingPushersAgainstCloseNeverLoseAcceptedItems) {
  // Every Push that returned true must be Pop-able; every Push after the
  // close must have returned false. The sum of drained items therefore
  // equals the number of accepted pushes, whatever the interleaving.
  ThreadSafeQueue<int> q;
  std::atomic<int> accepted{0};
  constexpr int kPushers = 4, kPerPusher = 2000;
  std::vector<std::thread> pushers;
  for (int p = 0; p < kPushers; ++p) {
    pushers.emplace_back([&q, &accepted] {
      for (int i = 0; i < kPerPusher; ++i) {
        if (q.Push(1)) accepted.fetch_add(1);
      }
    });
  }
  std::thread closer([&q] { q.Close(); });
  int drained = 0;
  while (q.Pop().has_value()) ++drained;
  for (auto& t : pushers) t.join();
  closer.join();
  // The single consumer saw end-of-stream only after close; late-accepted
  // items may still sit in the queue, so drain the remainder.
  while (q.TryPop().has_value()) ++drained;
  EXPECT_EQ(drained, accepted.load());
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  const int64_t t0 = timer.ElapsedNanos();
  EXPECT_GE(t0, 0);
  // Busy-wait a little; elapsed must be monotonic non-decreasing.
  volatile int64_t x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(timer.ElapsedNanos(), t0);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

TEST(ScratchArenaTest, ScopesRewindAndReuseStorage) {
  ScratchArena arena;
  std::byte* first = nullptr;
  {
    ScratchArena::Scope scope(&arena);
    first = arena.Alloc(100);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(first) % 16, 0u);
  }
  const size_t retained = arena.retained_bytes();
  {
    // After the rewind the same storage is handed out again, and the
    // steady state retains no extra memory.
    ScratchArena::Scope scope(&arena);
    EXPECT_EQ(arena.Alloc(100), first);
  }
  EXPECT_EQ(arena.retained_bytes(), retained);
}

TEST(ScratchArenaTest, NestedScopesDoNotClobberOuterAllocations) {
  ScratchArena arena;
  ScratchArena::Scope outer(&arena);
  int64_t* a = arena.AllocArray<int64_t>(64);
  for (int i = 0; i < 64; ++i) a[i] = i;
  {
    ScratchArena::Scope inner(&arena);
    int64_t* b = arena.AllocArray<int64_t>(64);
    EXPECT_NE(a, b);
    for (int i = 0; i < 64; ++i) b[i] = -1;
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a[i], i);  // outer survived
}

TEST(ScratchArenaTest, OversizedAllocationGetsOwnChunkWithoutRelocation) {
  ScratchArena arena;
  ScratchArena::Scope scope(&arena);
  std::byte* small = arena.Alloc(64);
  std::memset(small, 0xAB, 64);
  // Larger than the default chunk: must come from a fresh chunk while the
  // first allocation stays valid and intact.
  std::byte* big = arena.Alloc(1 << 20);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xCD, 1 << 20);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(small[i], std::byte{0xAB});
  }
}

TEST(ScratchSelVectorTest, NestedLeasesAreDistinct) {
  ScratchSelVector a;
  a->assign({1, 2, 3});
  {
    ScratchSelVector b;  // nested: must not alias `a`
    EXPECT_TRUE(b->empty());
    b->assign({9, 9});
    EXPECT_EQ(a->size(), 3u);
  }
  EXPECT_EQ((*a)[0], 1u);
  // Released vectors are recycled with cleared contents.
  ScratchSelVector c;
  EXPECT_TRUE(c->empty());
}

}  // namespace
}  // namespace uot

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>

#include "join/hash_table.h"
#include "model/memory_model.h"
#include "operators/exec_context.h"
#include "util/memory_tracker.h"

namespace uot {
namespace {

Schema PayloadSchema() {
  return Schema({{"v", Type::Int32()}});
}

void InsertKv(JoinHashTable* ht, int64_t key, int32_t value) {
  uint64_t k[2] = {static_cast<uint64_t>(key), 0};
  std::byte payload[4];
  std::memcpy(payload, &value, 4);
  ht->Insert(k, payload);
}

std::vector<int32_t> ProbeAll(const JoinHashTable& ht, int64_t key) {
  uint64_t k[2] = {static_cast<uint64_t>(key), 0};
  std::vector<int32_t> out;
  ht.Probe(k, [&out](const std::byte* payload) {
    int32_t v;
    std::memcpy(&v, payload, 4);
    out.push_back(v);
  });
  return out;
}

TEST(JoinHashTableTest, InsertAndProbe) {
  MemoryTracker tracker;
  JoinHashTable ht(PayloadSchema(), 1, 0.75, &tracker);
  ht.Reserve(100);
  for (int i = 0; i < 100; ++i) InsertKv(&ht, i, i * 10);
  EXPECT_EQ(ht.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    const auto vals = ProbeAll(ht, i);
    ASSERT_EQ(vals.size(), 1u) << "key " << i;
    EXPECT_EQ(vals[0], i * 10);
  }
  EXPECT_TRUE(ProbeAll(ht, 1000).empty());
}

TEST(JoinHashTableTest, DuplicateKeysMultimap) {
  MemoryTracker tracker;
  JoinHashTable ht(PayloadSchema(), 1, 0.5, &tracker);
  ht.Reserve(30);
  for (int i = 0; i < 10; ++i) InsertKv(&ht, 7, i);
  for (int i = 0; i < 10; ++i) InsertKv(&ht, 8, 100 + i);
  const auto vals = ProbeAll(ht, 7);
  EXPECT_EQ(vals.size(), 10u);
  EXPECT_EQ(std::set<int32_t>(vals.begin(), vals.end()).size(), 10u);
  EXPECT_EQ(ProbeAll(ht, 8).size(), 10u);
}

TEST(JoinHashTableTest, NegativeAndLargeKeys) {
  MemoryTracker tracker;
  JoinHashTable ht(PayloadSchema(), 1, 0.75, &tracker);
  ht.Reserve(4);
  InsertKv(&ht, -5, 1);
  InsertKv(&ht, 1LL << 40, 2);
  InsertKv(&ht, 0, 3);
  EXPECT_EQ(ProbeAll(ht, -5).at(0), 1);
  EXPECT_EQ(ProbeAll(ht, 1LL << 40).at(0), 2);
  EXPECT_EQ(ProbeAll(ht, 0).at(0), 3);
  EXPECT_TRUE(ProbeAll(ht, 5).empty());
}

TEST(JoinHashTableTest, CompositeKeys) {
  MemoryTracker tracker;
  JoinHashTable ht(PayloadSchema(), 2, 0.75, &tracker);
  ht.Reserve(10);
  std::byte payload[4];
  const int32_t v1 = 1, v2 = 2;
  uint64_t k1[2] = {10, 20};
  uint64_t k2[2] = {20, 10};  // swapped words must be a distinct key
  std::memcpy(payload, &v1, 4);
  ht.Insert(k1, payload);
  std::memcpy(payload, &v2, 4);
  ht.Insert(k2, payload);

  int32_t got = 0;
  ht.Probe(k1, [&](const std::byte* p) { std::memcpy(&got, p, 4); });
  EXPECT_EQ(got, 1);
  ht.Probe(k2, [&](const std::byte* p) { std::memcpy(&got, p, 4); });
  EXPECT_EQ(got, 2);
}

TEST(JoinHashTableTest, EmptyPayload) {
  MemoryTracker tracker;
  JoinHashTable ht(Schema(std::vector<Column>{}), 1, 0.75, &tracker);
  ht.Reserve(10);
  uint64_t k[2] = {3, 0};
  ht.Insert(k, nullptr);
  int hits = 0;
  ht.Probe(k, [&hits](const std::byte*) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(JoinHashTableTest, SlotSizingMatchesModel) {
  MemoryTracker tracker;
  const double f = 0.5;
  JoinHashTable ht(PayloadSchema(), 1, f, &tracker);
  ht.Reserve(1000);
  // Slots >= entries / load factor, rounded to a power of two.
  EXPECT_GE(ht.num_slots(), static_cast<uint64_t>(1000 / f));
  EXPECT_EQ(ht.num_slots() & (ht.num_slots() - 1), 0u);
  // The Section VI-B model: footprint ~ entries * (c / f). Allow the
  // power-of-two rounding factor of <= 2x plus tag storage.
  const double model = MemoryModel::HashTableBytes(
      1000.0 * 12, 12.0, static_cast<double>(ht.slot_bytes()), f);
  EXPECT_GE(static_cast<double>(ht.allocated_bytes()), model * 0.9);
  EXPECT_LE(static_cast<double>(ht.allocated_bytes()), model * 2.5);
}

TEST(JoinHashTableTest, MemoryAccountingLifecycle) {
  MemoryTracker tracker;
  {
    JoinHashTable ht(PayloadSchema(), 1, 0.75, &tracker);
    EXPECT_EQ(tracker.Current(MemoryCategory::kHashTable), 0);
    ht.Reserve(100);
    EXPECT_EQ(tracker.Current(MemoryCategory::kHashTable),
              static_cast<int64_t>(ht.allocated_bytes()));
  }
  EXPECT_EQ(tracker.Current(MemoryCategory::kHashTable), 0);
}

TEST(JoinHashTableTest, ConcurrentBuildFindsAllEntries) {
  MemoryTracker tracker;
  JoinHashTable ht(PayloadSchema(), 1, 0.75, &tracker);
  constexpr int kThreads = 4, kPerThread = 2000;
  ht.Reserve(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ht, t] {
      for (int i = 0; i < kPerThread; ++i) {
        InsertKv(&ht, t * kPerThread + i, i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ht.size(), static_cast<uint64_t>(kThreads * kPerThread));
  for (int key : {0, 1999, 2000, 4500, 7999}) {
    EXPECT_EQ(ProbeAll(ht, key).size(), 1u) << "key " << key;
  }
}

/// The engine builds through InsertBatch, which counts its entries once
/// per batch rather than per row. Concurrent batched builds, mixed with
/// scalar inserts, must still count every row and keep every duplicate.
TEST(JoinHashTableTest, ConcurrentBatchedBuildCountsEveryRow) {
  constexpr int kThreads = 4, kRounds = 12;
  constexpr uint64_t kDistinct = 500;
  // Empty, single-row, just below and at the prefetch threshold, and full.
  constexpr uint32_t kMin = JoinKernelConfig::kMinRowsForPrefetch;
  const std::vector<uint32_t> sizes = {0, 1, kMin - 1, kMin, 256, 256};
  uint64_t per_round = 1;  // one scalar Insert per round
  for (const uint32_t n : sizes) per_round += n;
  const uint64_t per_thread = kRounds * per_round;
  // Row r of thread t: key (t * 131 + r) % kDistinct, value t * 1e6 + r,
  // so every key repeats within and across threads.
  auto key_of = [](int t, uint64_t r) { return (t * 131 + r) % kDistinct; };
  auto value_of = [](int t, uint64_t r) {
    return static_cast<int32_t>(t * 1000000 + r);
  };

  MemoryTracker tracker;
  JoinHashTable ht(PayloadSchema(), 1, 0.75, &tracker);
  ht.Reserve(kThreads * per_thread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint64_t> keys, hashes;
      std::vector<std::byte> payloads;
      uint64_t r = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (const uint32_t n : sizes) {
          keys.resize(n);
          payloads.resize(static_cast<size_t>(n) * 4);
          for (uint32_t i = 0; i < n; ++i, ++r) {
            keys[i] = key_of(t, r);
            const int32_t v = value_of(t, r);
            std::memcpy(payloads.data() + static_cast<size_t>(i) * 4, &v, 4);
          }
          ht.InsertBatch(keys.data(), payloads.data(), n,
                         /*prefetch_distance=*/16, &hashes);
        }
        InsertKv(&ht, static_cast<int64_t>(key_of(t, r)), value_of(t, r));
        ++r;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(ht.size(), kThreads * per_thread);
  std::vector<std::vector<int32_t>> expected(kDistinct);
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t r = 0; r < per_thread; ++r) {
      expected[key_of(t, r)].push_back(value_of(t, r));
    }
  }
  for (uint64_t key = 0; key < kDistinct; ++key) {
    std::vector<int32_t> got = ProbeAll(ht, static_cast<int64_t>(key));
    std::sort(got.begin(), got.end());
    std::sort(expected[key].begin(), expected[key].end());
    EXPECT_EQ(got, expected[key]) << "key " << key;
  }
  EXPECT_TRUE(ProbeAll(ht, kDistinct).empty());
}

TEST(JoinHashTableTest, HashKeyMixesWords) {
  uint64_t a[2] = {1, 0};
  uint64_t b[2] = {2, 0};
  uint64_t c[2] = {1, 1};
  EXPECT_NE(HashJoinKey(a, 1), HashJoinKey(b, 1));
  EXPECT_NE(HashJoinKey(a, 2), HashJoinKey(c, 2));
}

/// Batched probes must observe exactly the per-row scalar Probe results,
/// in the same order (row-ascending, chain order within a row) — the
/// byte-parity contract of the batched join kernels. Exercised across
/// 1- and 2-word keys, duplicate-heavy keys, misses, prefetch on/off, and
/// batch sizes straddling the prefetch threshold and typical batch bounds.
TEST(JoinHashTableTest, ProbeBatchMatchesScalarProbe) {
  for (const int words : {1, 2}) {
    MemoryTracker tracker;
    JoinHashTable ht(PayloadSchema(), words, 0.7, &tracker);
    ht.Reserve(600);
    // Duplicate-heavy: key k appears (k % 5) + 1 times.
    for (int k = 0; k < 100; ++k) {
      for (int dup = 0; dup <= k % 5; ++dup) {
        uint64_t key[2] = {static_cast<uint64_t>(k),
                           static_cast<uint64_t>(k * 3)};
        const int32_t v = k * 100 + dup;
        std::byte payload[4];
        std::memcpy(payload, &v, 4);
        ht.Insert(key, payload);
      }
    }

    for (const uint32_t n : {0u, 1u, 15u, 16u, 17u, 255u, 256u, 257u}) {
      // Probe keys cycle through hits and misses (keys >= 100 miss).
      std::vector<uint64_t> keys(static_cast<size_t>(n) * words);
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t k = i % 120;
        keys[static_cast<size_t>(i) * words] = k;
        if (words == 2) keys[static_cast<size_t>(i) * words + 1] = k * 3;
      }

      // Scalar reference: per-row Probe in row order.
      std::vector<std::pair<uint32_t, int32_t>> expected;
      for (uint32_t i = 0; i < n; ++i) {
        ht.Probe(keys.data() + static_cast<size_t>(i) * words,
                 [&](const std::byte* payload) {
                   int32_t v;
                   std::memcpy(&v, payload, 4);
                   expected.emplace_back(i, v);
                 });
      }

      for (const int dist : {0, 4, 16}) {
        std::vector<uint64_t> hashes;
        std::vector<JoinMatch> matches;
        ht.ProbeBatch(keys.data(), n, dist, &hashes, &matches);
        ASSERT_EQ(matches.size(), expected.size())
            << "words=" << words << " n=" << n << " dist=" << dist;
        for (size_t i = 0; i < matches.size(); ++i) {
          EXPECT_EQ(matches[i].row, expected[i].first);
          int32_t v;
          std::memcpy(&v, matches[i].payload, 4);
          EXPECT_EQ(v, expected[i].second);
        }
        // The scratch holds the batch hashes (LIP filters rely on this).
        for (uint32_t i = 0; i < n; ++i) {
          EXPECT_EQ(hashes[i],
                    HashJoinKey(keys.data() + static_cast<size_t>(i) * words,
                                words));
        }
      }
    }
  }
}

/// A table built with InsertBatch must be indistinguishable from one built
/// with per-row Insert: single-threaded batch order equals row order, so
/// every probe chain matches exactly.
TEST(JoinHashTableTest, InsertBatchMatchesScalarInsert) {
  for (const uint32_t n : {1u, 15u, 16u, 255u, 256u, 257u}) {
    MemoryTracker tracker;
    JoinHashTable scalar_ht(PayloadSchema(), 1, 0.7, &tracker);
    JoinHashTable batched_ht(PayloadSchema(), 1, 0.7, &tracker);
    scalar_ht.Reserve(n);
    batched_ht.Reserve(n);

    std::vector<uint64_t> keys(n);
    std::vector<std::byte> payloads(static_cast<size_t>(n) * 4);
    for (uint32_t i = 0; i < n; ++i) {
      keys[i] = i % 50;  // duplicates once n > 50
      const int32_t v = static_cast<int32_t>(i);
      std::memcpy(payloads.data() + static_cast<size_t>(i) * 4, &v, 4);
    }
    for (uint32_t i = 0; i < n; ++i) {
      scalar_ht.Insert(&keys[i], payloads.data() + static_cast<size_t>(i) * 4);
    }
    std::vector<uint64_t> hashes;
    batched_ht.InsertBatch(keys.data(), payloads.data(), n,
                           /*prefetch_distance=*/16, &hashes);

    ASSERT_EQ(batched_ht.size(), scalar_ht.size());
    ASSERT_EQ(batched_ht.num_slots(), scalar_ht.num_slots());
    for (uint64_t key = 0; key < 50; ++key) {
      EXPECT_EQ(ProbeAll(batched_ht, static_cast<int64_t>(key)),
                ProbeAll(scalar_ht, static_cast<int64_t>(key)))
          << "n=" << n << " key=" << key;
    }
  }
}

/// Zero-width payloads (semi/anti join builds) work through the batched
/// path: `payloads` may be null when the payload schema is empty.
TEST(JoinHashTableTest, InsertBatchEmptyPayload) {
  MemoryTracker tracker;
  JoinHashTable ht(Schema(std::vector<Column>{}), 1, 0.75, &tracker);
  ht.Reserve(64);
  std::vector<uint64_t> keys(64);
  for (uint32_t i = 0; i < 64; ++i) keys[i] = i;
  std::vector<uint64_t> hashes;
  ht.InsertBatch(keys.data(), nullptr, 64, /*prefetch_distance=*/8, &hashes);
  EXPECT_EQ(ht.size(), 64u);
  std::vector<JoinMatch> matches;
  ht.ProbeBatch(keys.data(), 64, /*prefetch_distance=*/8, &hashes, &matches);
  EXPECT_EQ(matches.size(), 64u);
}

}  // namespace
}  // namespace uot

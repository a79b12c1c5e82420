#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "join/hash_table.h"
#include "model/memory_model.h"
#include "obs/trace_session.h"
#include "operators/exec_context.h"
#include "util/memory_tracker.h"
#include "util/random.h"

namespace uot {
namespace {

Schema PayloadSchema() {
  return Schema({{"v", Type::Int32()}});
}

/// Reference oracles: the tuple-at-a-time path, as one-row InsertBatch and
/// ProbeBatch calls without prefetching. Batched builds and probes must
/// agree with them.
void InsertOne(JoinHashTable* ht, const uint64_t* key,
               const std::byte* payload) {
  std::vector<uint64_t> scratch;
  ht->InsertBatch(key, payload, 1, /*prefetch_distance=*/0, &scratch);
}

template <typename Fn>
void ProbeOne(const JoinHashTable& ht, const uint64_t* key, Fn&& fn) {
  std::vector<uint64_t> scratch;
  std::vector<JoinMatch> matches;
  ht.ProbeBatch(key, 1, /*prefetch_distance=*/0, &scratch, &matches);
  for (const JoinMatch& match : matches) fn(match.payload);
}

void InsertKv(JoinHashTable* ht, int64_t key, int32_t value) {
  uint64_t k[2] = {static_cast<uint64_t>(key), 0};
  std::byte payload[4];
  std::memcpy(payload, &value, 4);
  InsertOne(ht, k, payload);
}

std::vector<int32_t> ProbeAll(const JoinHashTable& ht, int64_t key) {
  uint64_t k[2] = {static_cast<uint64_t>(key), 0};
  std::vector<int32_t> out;
  ProbeOne(ht, k, [&out](const std::byte* payload) {
    int32_t v;
    std::memcpy(&v, payload, 4);
    out.push_back(v);
  });
  return out;
}

/// Both layouts of a 1-word-key table for `entries` rows with keys in
/// [min_key, max_key]: `dense` reserves with the key range (and checks the
/// size rule picked the dense layout), otherwise the hash layout.
void ReserveLayout(JoinHashTable* ht, bool dense, uint64_t entries,
                   int64_t min_key, int64_t max_key) {
  if (dense) {
    ht->Reserve(entries, min_key, max_key);
    ASSERT_TRUE(ht->dense());
  } else {
    ht->Reserve(entries);
    ASSERT_FALSE(ht->dense());
  }
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
  InsertOne(&ht, k1, payload);
  std::memcpy(payload, &v2, 4);
  InsertOne(&ht, k2, payload);

  int32_t got = 0;
  ProbeOne(ht, k1, [&](const std::byte* p) { std::memcpy(&got, p, 4); });
  EXPECT_EQ(got, 1);
  ProbeOne(ht, k2, [&](const std::byte* p) { std::memcpy(&got, p, 4); });
  EXPECT_EQ(got, 2);
}

TEST(JoinHashTableTest, EmptyPayload) {
  MemoryTracker tracker;
  JoinHashTable ht(Schema(std::vector<Column>{}), 1, 0.75, &tracker);
  ht.Reserve(10);
  uint64_t k[2] = {3, 0};
  InsertOne(&ht, k, nullptr);
  int hits = 0;
  ProbeOne(ht, k, [&hits](const std::byte*) { ++hits; });
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

/// The engine builds through InsertBatch: the hash layout counts its
/// entries once per batch, the dense layout claims each batch's entries
/// with one fetch_add and prepends rows with one head exchange each.
/// Concurrent batched builds, mixed with one-row inserts, must count every
/// row and keep every duplicate in both layouts.
TEST(JoinHashTableTest, ConcurrentBatchedBuildCountsEveryRow) {
  constexpr int kThreads = 4, kRounds = 12;
  constexpr uint64_t kDistinct = 500;
  // Empty, single-row, just below and at the prefetch threshold, and full.
  constexpr uint32_t kMin = JoinKernelConfig::kMinRowsForPrefetch;
  const std::vector<uint32_t> sizes = {0, 1, kMin - 1, kMin, 256, 256};
  uint64_t per_round = 1;  // one single-row insert per round
  for (const uint32_t n : sizes) per_round += n;
  const uint64_t per_thread = kRounds * per_round;
  // Row r of thread t: key (t * 131 + r) % kDistinct, value t * 1e6 + r,
  // so every key repeats within and across threads.
  auto key_of = [](int t, uint64_t r) { return (t * 131 + r) % kDistinct; };
  auto value_of = [](int t, uint64_t r) {
    return static_cast<int32_t>(t * 1000000 + r);
  };

  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "dense" : "hash");
    MemoryTracker tracker;
    JoinHashTable ht(PayloadSchema(), 1, 0.75, &tracker);
    ReserveLayout(&ht, dense, kThreads * per_thread, 0, kDistinct - 1);
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
              std::memcpy(payloads.data() + static_cast<size_t>(i) * 4, &v,
                          4);
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
}

TEST(JoinHashTableTest, HashKeyMixesWords) {
  uint64_t a[2] = {1, 0};
  uint64_t b[2] = {2, 0};
  uint64_t c[2] = {1, 1};
  EXPECT_NE(HashJoinKey(a, 1), HashJoinKey(b, 1));
  EXPECT_NE(HashJoinKey(a, 2), HashJoinKey(c, 2));
}

/// Batched probes must observe exactly the one-row probe results, in the
/// same order (row-ascending, chain order within a row) — the byte-parity
/// contract of the batched join kernels. Exercised across 1- and 2-word
/// hash keys and the dense layout, duplicate-heavy keys, misses, prefetch
/// on/off, and batch sizes straddling the prefetch threshold and typical
/// batch bounds.
TEST(JoinHashTableTest, ProbeBatchMatchesOneRowProbe) {
  for (const int words : {1, 2, /*dense*/ 0}) {
    const bool dense = words == 0;
    const int key_words = dense ? 1 : words;
    SCOPED_TRACE(dense ? "dense" : "words=" + std::to_string(words));
    MemoryTracker tracker;
    JoinHashTable ht(PayloadSchema(), key_words, 0.7, &tracker);
    if (dense) {
      ReserveLayout(&ht, true, 600, 0, 99);
    } else {
      ht.Reserve(600);
    }
    // Duplicate-heavy: key k appears (k % 5) + 1 times.
    for (int k = 0; k < 100; ++k) {
      for (int dup = 0; dup <= k % 5; ++dup) {
        uint64_t key[2] = {static_cast<uint64_t>(k),
                           static_cast<uint64_t>(k * 3)};
        const int32_t v = k * 100 + dup;
        std::byte payload[4];
        std::memcpy(payload, &v, 4);
        InsertOne(&ht, key, payload);
      }
    }

    for (const uint32_t n : {0u, 1u, 15u, 16u, 17u, 255u, 256u, 257u}) {
      // Probe keys cycle through hits and misses (keys >= 100 miss).
      std::vector<uint64_t> keys(static_cast<size_t>(n) * key_words);
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t k = i % 120;
        keys[static_cast<size_t>(i) * key_words] = k;
        if (key_words == 2) keys[static_cast<size_t>(i) * 2 + 1] = k * 3;
      }

      // Reference: one-row probes in row order.
      std::vector<std::pair<uint32_t, int32_t>> expected;
      for (uint32_t i = 0; i < n; ++i) {
        ProbeOne(ht, keys.data() + static_cast<size_t>(i) * key_words,
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
            << "n=" << n << " dist=" << dist;
        for (size_t i = 0; i < matches.size(); ++i) {
          EXPECT_EQ(matches[i].row, expected[i].first);
          int32_t v;
          std::memcpy(&v, matches[i].payload, 4);
          EXPECT_EQ(v, expected[i].second);
        }
      }
    }
  }
}

/// A table built with InsertBatch must be indistinguishable from one built
/// with one-row inserts: single-threaded batch order equals row order, so
/// every chain matches exactly, in both layouts.
TEST(JoinHashTableTest, InsertBatchMatchesOneRowInsert) {
  for (const bool dense : {false, true}) {
    for (const uint32_t n : {1u, 15u, 16u, 255u, 256u, 257u}) {
      SCOPED_TRACE(std::string(dense ? "dense" : "hash") +
                   " n=" + std::to_string(n));
      MemoryTracker tracker;
      JoinHashTable one_row_ht(PayloadSchema(), 1, 0.7, &tracker);
      JoinHashTable batched_ht(PayloadSchema(), 1, 0.7, &tracker);
      const int64_t max_key = std::min<int64_t>(n, 50) - 1;
      ReserveLayout(&one_row_ht, dense, n, 0, max_key);
      ReserveLayout(&batched_ht, dense, n, 0, max_key);

      std::vector<uint64_t> keys(n);
      std::vector<std::byte> payloads(static_cast<size_t>(n) * 4);
      for (uint32_t i = 0; i < n; ++i) {
        keys[i] = i % 50;  // duplicates once n > 50
        const int32_t v = static_cast<int32_t>(i);
        std::memcpy(payloads.data() + static_cast<size_t>(i) * 4, &v, 4);
      }
      for (uint32_t i = 0; i < n; ++i) {
        InsertOne(&one_row_ht, &keys[i],
                  payloads.data() + static_cast<size_t>(i) * 4);
      }
      std::vector<uint64_t> hashes;
      batched_ht.InsertBatch(keys.data(), payloads.data(), n,
                             /*prefetch_distance=*/16, &hashes);

      ASSERT_EQ(batched_ht.size(), one_row_ht.size());
      ASSERT_EQ(batched_ht.num_slots(), one_row_ht.num_slots());
      for (uint64_t key = 0; key < 50; ++key) {
        EXPECT_EQ(ProbeAll(batched_ht, static_cast<int64_t>(key)),
                  ProbeAll(one_row_ht, static_cast<int64_t>(key)))
            << "key=" << key;
      }
    }
  }
}

/// The hash layout's InsertBatch leaves the batch hashes in the scratch;
/// the build's LIP filter reuses them instead of rehashing.
TEST(JoinHashTableTest, HashInsertBatchLeavesBatchHashes) {
  MemoryTracker tracker;
  JoinHashTable ht(PayloadSchema(), 1, 0.75, &tracker);
  ht.Reserve(64);
  std::vector<uint64_t> keys(64);
  std::vector<std::byte> payloads(64 * 4);
  for (uint32_t i = 0; i < 64; ++i) keys[i] = i * 7;
  std::vector<uint64_t> hashes;
  ht.InsertBatch(keys.data(), payloads.data(), 64, /*prefetch_distance=*/8,
                 &hashes);
  ASSERT_GE(hashes.size(), 64u);
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(hashes[i], HashJoinKey(&keys[i], 1));
  }
}

/// Zero-width payloads (semi/anti join builds) work through the batched
/// path in both layouts: `payloads` may be null when the payload schema is
/// empty.
TEST(JoinHashTableTest, InsertBatchEmptyPayload) {
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "dense" : "hash");
    MemoryTracker tracker;
    JoinHashTable ht(Schema(std::vector<Column>{}), 1, 0.75, &tracker);
    ReserveLayout(&ht, dense, 64, 0, 63);
    std::vector<uint64_t> keys(64);
    for (uint32_t i = 0; i < 64; ++i) keys[i] = i;
    std::vector<uint64_t> hashes;
    ht.InsertBatch(keys.data(), nullptr, 64, /*prefetch_distance=*/8,
                   &hashes);
    EXPECT_EQ(ht.size(), 64u);
    std::vector<JoinMatch> matches;
    ht.ProbeBatch(keys.data(), 64, /*prefetch_distance=*/8, &hashes,
                  &matches);
    EXPECT_EQ(matches.size(), 64u);
  }
}

TEST(DenseJoinTableTest, DuplicateChainsReturnEveryPayload) {
  MemoryTracker tracker;
  JoinHashTable ht(PayloadSchema(), 1, 0.75, &tracker);
  constexpr int kKeys = 10, kCopies = 15;
  ReserveLayout(&ht, true, kKeys * kCopies, 100, 100 + kKeys - 1);
  // Copies interleave across keys, in batches above the prefetch threshold.
  std::vector<uint64_t> keys;
  std::vector<std::byte> payloads;
  for (int c = 0; c < kCopies; ++c) {
    for (int k = 0; k < kKeys; ++k) {
      keys.push_back(static_cast<uint64_t>(100 + k));
      const int32_t v = k * 1000 + c;
      const size_t at = payloads.size();
      payloads.resize(at + 4);
      std::memcpy(payloads.data() + at, &v, 4);
    }
  }
  std::vector<uint64_t> hashes;
  ht.InsertBatch(keys.data(), payloads.data(),
                 static_cast<uint32_t>(keys.size()), /*prefetch_distance=*/16,
                 &hashes);
  EXPECT_EQ(ht.size(), static_cast<uint64_t>(kKeys * kCopies));
  for (int k = 0; k < kKeys; ++k) {
    std::vector<int32_t> got = ProbeAll(ht, 100 + k);
    std::sort(got.begin(), got.end());
    std::vector<int32_t> want;
    for (int c = 0; c < kCopies; ++c) want.push_back(k * 1000 + c);
    EXPECT_EQ(got, want) << "key " << 100 + k;
  }
}

TEST(DenseJoinTableTest, ProbeKeysOutsideTheRangeMiss) {
  MemoryTracker tracker;
  JoinHashTable ht(PayloadSchema(), 1, 0.75, &tracker);
  // Signed keys [-3, 5], widened the way ExtractKeys widens INT32.
  ReserveLayout(&ht, true, 9, -3, 5);
  for (int64_t k = -3; k <= 5; ++k) InsertKv(&ht, k, static_cast<int32_t>(k));
  auto widen = [](int32_t v) {
    return static_cast<uint64_t>(static_cast<int64_t>(v));
  };
  // Below min, above max, the extremes of INT32 and of the 64-bit words,
  // repeated past the prefetch threshold so the prefetch path sees them.
  const std::vector<uint64_t> misses = {
      widen(-4), widen(6), widen(INT32_MIN), widen(INT32_MAX), widen(-1000),
      0x8000000000000000ULL, 0x7FFFFFFFFFFFFFFFULL, 1ULL << 40};
  std::vector<uint64_t> probe;
  for (int r = 0; r < 8; ++r) {
    probe.insert(probe.end(), misses.begin(), misses.end());
  }
  std::vector<uint64_t> hashes;
  std::vector<JoinMatch> matches;
  ht.ProbeBatch(probe.data(), static_cast<uint32_t>(probe.size()),
                /*prefetch_distance=*/16, &hashes, &matches);
  EXPECT_TRUE(matches.empty());
  for (int32_t k = -3; k <= 5; ++k) {
    EXPECT_EQ(ProbeAll(ht, k), std::vector<int32_t>{k}) << "key " << k;
  }
}

TEST(DenseJoinTableTest, OneKeyRangeAndEmptyBuild) {
  MemoryTracker tracker;
  JoinHashTable one_key(PayloadSchema(), 1, 0.75, &tracker);
  ReserveLayout(&one_key, true, 5, 42, 42);
  EXPECT_EQ(one_key.num_slots(), 1u);
  for (int32_t v = 0; v < 5; ++v) InsertKv(&one_key, 42, v);
  std::vector<int32_t> got = ProbeAll(one_key, 42);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int32_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(ProbeAll(one_key, 41).empty());
  EXPECT_TRUE(ProbeAll(one_key, 43).empty());

  JoinHashTable empty(PayloadSchema(), 1, 0.75, &tracker);
  ReserveLayout(&empty, true, 0, 7, 7);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(ProbeAll(empty, 7).empty());
  EXPECT_TRUE(ProbeAll(empty, 8).empty());
}

/// Reserve picks the layout with MemoryModel::JoinTableBytes and accounts
/// exactly the bytes the model gives: dense for a narrow range, hash for a
/// sparse one or a span past 32 bits.
TEST(DenseJoinTableTest, SizeRulePicksTheSmallerLayout) {
  MemoryTracker tracker;
  const Schema payload = PayloadSchema();
  struct Case {
    uint64_t rows;
    int64_t min_key, max_key;
    bool dense;
  };
  const Case cases[] = {
      {1000, 0, 999, true},               // unique keys, full range
      {1000, 0, 99, true},                // 10 rows per key
      {1000, 0, 1 << 20, false},          // sparse: 1000 keys over 1M
      {10, INT64_MIN, INT64_MAX, false},  // span wraps past 64 bits
      {10, 0, int64_t{1} << 33, false},   // span past 32 bits
  };
  for (const Case& c : cases) {
    JoinHashTable ht(payload, 1, 0.75, &tracker);
    ht.Reserve(c.rows, c.min_key, c.max_key);
    EXPECT_EQ(ht.dense(), c.dense) << c.rows << " rows over [" << c.min_key
                                   << ", " << c.max_key << "]";
    const uint64_t range = static_cast<uint64_t>(c.max_key) -
                           static_cast<uint64_t>(c.min_key) + 1;
    const MemoryModel::JoinTableFootprint model = MemoryModel::JoinTableBytes(
        c.rows, range, payload.row_width(), ht.slot_bytes(), 0.75);
    EXPECT_EQ(model.dense, c.dense);
    EXPECT_EQ(ht.allocated_bytes(), model.bytes);
    EXPECT_EQ(ht.num_slots(), model.slots);
  }
}

/// The kHashTableReserve trace instant names the layout Reserve chose.
TEST(DenseJoinTableTest, ReserveTraceNamesTheLayout) {
  obs::TraceSession trace;
  MemoryTracker tracker;
  tracker.AttachObservers(&trace);
  JoinHashTable dense(PayloadSchema(), 1, 0.75, &tracker);
  dense.Reserve(100, 0, 49);
  JoinHashTable hash(PayloadSchema(), 1, 0.75, &tracker);
  hash.Reserve(100);
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find(R"("layout":"dense","slots":50,)"), std::string::npos);
  EXPECT_NE(json.find(R"("layout":"hash","slots":256,)"), std::string::npos);
  tracker.AttachObservers(nullptr);
}

TEST(DenseJoinTableTest, MemoryAccountingLifecycle) {
  MemoryTracker tracker;
  {
    JoinHashTable ht(PayloadSchema(), 1, 0.75, &tracker);
    ReserveLayout(&ht, true, 100, 0, 49);
    // 50 heads + 100 * (4-byte link + 4-byte payload).
    EXPECT_EQ(ht.allocated_bytes(), 50u * 4 + 100u * 8);
    EXPECT_EQ(tracker.Current(MemoryCategory::kHashTable),
              static_cast<int64_t>(ht.allocated_bytes()));
  }
  EXPECT_EQ(tracker.Current(MemoryCategory::kHashTable), 0);
}

/// The same random build and probe through Reserve(n) and
/// Reserve(n, min, max) give the same multiset of (row, payload) matches.
TEST(DenseJoinTableTest, LayoutParityOnRandomBuildsAndProbes) {
  for (const uint64_t seed : {1, 2, 3, 4}) {
    Random rng(seed);
    const int64_t lo = rng.Uniform(-5000, 5000);
    const int64_t span = rng.Uniform(1, 3000);
    // At least 1000 rows over at most 3001 key values: dense is smaller.
    const uint32_t n = static_cast<uint32_t>(rng.Uniform(1000, 6000));
    std::vector<uint64_t> keys(n);
    std::vector<std::byte> payloads(static_cast<size_t>(n) * 4);
    int64_t min_key = INT64_MAX, max_key = INT64_MIN;
    for (uint32_t i = 0; i < n; ++i) {
      const int64_t k = lo + rng.Uniform(0, span);
      min_key = std::min(min_key, k);
      max_key = std::max(max_key, k);
      keys[i] = static_cast<uint64_t>(k);
      const int32_t v = static_cast<int32_t>(i);
      std::memcpy(payloads.data() + static_cast<size_t>(i) * 4, &v, 4);
    }
    MemoryTracker tracker;
    JoinHashTable hash(PayloadSchema(), 1, 0.75, &tracker);
    JoinHashTable dense(PayloadSchema(), 1, 0.75, &tracker);
    ReserveLayout(&hash, false, n, min_key, max_key);
    ReserveLayout(&dense, true, n, min_key, max_key);
    std::vector<uint64_t> hashes;
    for (uint32_t base = 0; base < n; base += 256) {
      const uint32_t m = std::min<uint32_t>(256, n - base);
      for (JoinHashTable* ht : {&hash, &dense}) {
        ht->InsertBatch(keys.data() + base,
                        payloads.data() + static_cast<size_t>(base) * 4, m,
                        /*prefetch_distance=*/16, &hashes);
      }
    }

    // Probe keys reach past both ends of the build range.
    std::vector<uint64_t> probe(2000);
    for (uint64_t& k : probe) {
      k = static_cast<uint64_t>(lo + rng.Uniform(-100, span + 100));
    }
    std::vector<std::pair<uint32_t, int32_t>> got[2];
    const JoinHashTable* tables[2] = {&hash, &dense};
    for (int t = 0; t < 2; ++t) {
      std::vector<JoinMatch> matches;
      for (uint32_t base = 0; base < probe.size(); base += 256) {
        const uint32_t m = std::min<uint32_t>(
            256, static_cast<uint32_t>(probe.size()) - base);
        tables[t]->ProbeBatch(probe.data() + base, m,
                              /*prefetch_distance=*/16, &hashes, &matches);
        for (const JoinMatch& match : matches) {
          int32_t v;
          std::memcpy(&v, match.payload, 4);
          got[t].emplace_back(base + match.row, v);
        }
      }
      std::sort(got[t].begin(), got[t].end());
    }
    EXPECT_FALSE(got[0].empty()) << "seed " << seed;
    EXPECT_EQ(got[0], got[1]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace uot

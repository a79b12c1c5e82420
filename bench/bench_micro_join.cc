// Join-kernel A/B: scalar (tuple-at-a-time) vs batched+software-prefetched
// build and probe, at in-cache and out-of-cache hash table sizes — the
// repo's version of the paper's Table VI prefetching experiment. Group
// prefetching overlaps the batch's independent cache misses, so the win
// appears once the table outgrows LLC and every probe chain starts with a
// memory stall.
//
// Four parts:
//   1. Kernel level: one-row InsertBatch/ProbeBatch calls without
//      prefetching (the tuple-at-a-time path) vs InsertBatch/ProbeBatch
//      over batches of 256 with prefetch distance 16.
//   2. Concurrent build: 1, 2 and 4 threads InsertBatch disjoint slices
//      into one shared out-of-cache table, as the build work orders of a
//      non-partitioned join do. Any per-row write to shared state shows up
//      here as poor w4/w1 scaling; the single-thread A/B above cannot see it.
//   3. Duplicate keys: the same 4-thread build at 1, 4 and 15 rows per key
//      in both table layouts (hash and dense). The hash layout walks past
//      the earlier copies of a key to place the next one; the dense layout
//      prepends. Unique-key arms cannot show that cost.
//   4. Plan level: TPC-H Q3 through the scheduler with the join knobs at
//      batch 1 / no prefetch vs the defaults, across block sizes and UoT.
//
// Emits BENCH_join_kernels.json; the concurrent build reports
// build_concurrent_ms_w{1,2,4} and build_scaling_w4_w1 (w1 time over w4
// time, 4 = linear), the duplicate arms build_ns_per_row_dup{1,4,15}_
// {hash,dense} (4-thread wall time over rows). UOT_JOIN_BENCH_SMALL=1
// shrinks the table sizes and scale factor so CI can smoke-test the
// emitter in seconds.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "join/hash_table.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace uot;
using namespace uot::bench;

constexpr uint32_t kBatch = 256;
constexpr int kPrefetchDistance = 16;

struct KernelTimes {
  double build_scalar_ms = 0.0;
  double build_batched_ms = 0.0;
  double probe_scalar_ms = 0.0;
  double probe_batched_ms = 0.0;
};

/// Builds the probe key sequence: every build key once, in random order, so
/// a full probe pass touches the whole table with no locality the hardware
/// prefetcher could exploit.
std::vector<uint64_t> ShuffledKeys(uint64_t entries) {
  std::vector<uint64_t> keys(entries);
  for (uint64_t i = 0; i < entries; ++i) keys[i] = i * 37;
  Random rng(5);
  for (uint64_t i = entries - 1; i > 0; --i) {
    const uint64_t j =
        static_cast<uint64_t>(rng.Uniform(0, static_cast<int64_t>(i)));
    std::swap(keys[i], keys[j]);
  }
  return keys;
}

/// Payload i is the int64 i, packed at stride 8.
std::vector<std::byte> PackedPayloads(uint64_t entries) {
  std::vector<std::byte> payloads(entries * 8);
  for (uint64_t i = 0; i < entries; ++i) {
    const int64_t v = static_cast<int64_t>(i);
    std::memcpy(payloads.data() + i * 8, &v, 8);
  }
  return payloads;
}

KernelTimes RunKernelAb(uint64_t entries, int runs) {
  Schema payload({{"v", Type::Int64()}});
  const std::vector<uint64_t> probe_keys = ShuffledKeys(entries);
  const std::vector<std::byte> payloads = PackedPayloads(entries);

  KernelTimes out;
  out.build_scalar_ms = out.build_batched_ms = 1e300;
  out.probe_scalar_ms = out.probe_batched_ms = 1e300;
  std::vector<uint64_t> hash_scratch;
  std::vector<JoinMatch> matches;
  matches.reserve(kBatch);

  for (int r = 0; r < runs; ++r) {
    // One-at-a-time build: one-row calls without prefetching.
    JoinHashTable ht_scalar(payload, 1, 0.75, nullptr);
    ht_scalar.Reserve(entries);
    {
      Timer t;
      for (uint64_t i = 0; i < entries; ++i) {
        const uint64_t key = i * 37;
        ht_scalar.InsertBatch(&key, payloads.data() + i * 8, 1,
                              /*prefetch_distance=*/0, &hash_scratch);
      }
      out.build_scalar_ms =
          std::min(out.build_scalar_ms, t.ElapsedSeconds() * 1e3);
    }

    // Batched build. Keys are packed per batch (the operator's extract
    // stage does the same), outside the timed region's steady state cost.
    JoinHashTable ht_batched(payload, 1, 0.75, nullptr);
    ht_batched.Reserve(entries);
    std::vector<uint64_t> key_buf(kBatch);
    {
      Timer t;
      for (uint64_t base = 0; base < entries; base += kBatch) {
        const uint32_t m = static_cast<uint32_t>(
            std::min<uint64_t>(kBatch, entries - base));
        for (uint32_t i = 0; i < m; ++i) key_buf[i] = (base + i) * 37;
        ht_batched.InsertBatch(key_buf.data(), payloads.data() + base * 8, m,
                               kPrefetchDistance, &hash_scratch);
      }
      out.build_batched_ms =
          std::min(out.build_batched_ms, t.ElapsedSeconds() * 1e3);
    }

    // One-at-a-time probe: one dependent pointer chase per tuple.
    int64_t sum_scalar = 0;
    {
      Timer t;
      for (uint64_t i = 0; i < entries; ++i) {
        ht_scalar.ProbeBatch(&probe_keys[i], 1, /*prefetch_distance=*/0,
                             &hash_scratch, &matches);
        for (const JoinMatch& match : matches) {
          int64_t v;
          std::memcpy(&v, match.payload, 8);
          sum_scalar += v;
        }
      }
      out.probe_scalar_ms =
          std::min(out.probe_scalar_ms, t.ElapsedSeconds() * 1e3);
    }

    // Batched probe: hash the batch, prefetch ahead, then resolve.
    int64_t sum_batched = 0;
    {
      Timer t;
      for (uint64_t base = 0; base < entries; base += kBatch) {
        const uint32_t m = static_cast<uint32_t>(
            std::min<uint64_t>(kBatch, entries - base));
        ht_batched.ProbeBatch(&probe_keys[base], m, kPrefetchDistance,
                              &hash_scratch, &matches);
        for (const JoinMatch& match : matches) {
          int64_t v;
          std::memcpy(&v, match.payload, 8);
          sum_batched += v;
        }
      }
      out.probe_batched_ms =
          std::min(out.probe_batched_ms, t.ElapsedSeconds() * 1e3);
    }
    if (sum_scalar != sum_batched) {
      std::fprintf(stderr, "FATAL: kernel A/B sums diverge (%lld vs %lld)\n",
                   static_cast<long long>(sum_scalar),
                   static_cast<long long>(sum_batched));
      std::exit(1);
    }
  }
  return out;
}

/// Best-of-`runs` wall time (ms) for `threads` threads to build one shared
/// table of `keys.size()` rows with InsertBatch, each thread inserting its
/// own contiguous slice. `dense_range` > 0 reserves the dense layout over
/// keys [0, dense_range); 0 reserves the hash layout. Reserve (allocation,
/// zeroing the tags or heads) is outside the timing; the first touch of
/// the slots, links and payloads, which Reserve leaves unzeroed, is inside.
double TimeConcurrentBuild(const std::vector<uint64_t>& keys, int threads,
                           int runs, uint64_t dense_range = 0) {
  Schema payload({{"v", Type::Int64()}});
  const uint64_t entries = keys.size();
  const std::vector<std::byte> payloads = PackedPayloads(entries);
  double best_ms = 1e300;
  for (int r = 0; r < runs; ++r) {
    JoinHashTable ht(payload, 1, 0.75, nullptr);
    if (dense_range > 0) {
      ht.Reserve(entries, 0, static_cast<int64_t>(dense_range) - 1);
      if (!ht.dense()) {
        std::fprintf(stderr, "FATAL: dense arm reserved the hash layout\n");
        std::exit(1);
      }
    } else {
      ht.Reserve(entries);
    }
    Timer t;
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        const uint64_t begin = entries * w / threads;
        const uint64_t end = entries * (w + 1) / threads;
        std::vector<uint64_t> hash_scratch;
        for (uint64_t base = begin; base < end; base += kBatch) {
          const uint32_t m =
              static_cast<uint32_t>(std::min<uint64_t>(kBatch, end - base));
          ht.InsertBatch(&keys[base], payloads.data() + base * 8, m,
                         kPrefetchDistance, &hash_scratch);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    best_ms = std::min(best_ms, t.ElapsedSeconds() * 1e3);
    if (ht.size() != entries) {
      std::fprintf(stderr, "FATAL: concurrent build counted %llu of %llu\n",
                   static_cast<unsigned long long>(ht.size()),
                   static_cast<unsigned long long>(entries));
      std::exit(1);
    }
  }
  return best_ms;
}

void PrintKernelRow(const char* label, uint64_t entries,
                    const KernelTimes& t) {
  std::printf("%-12s (%8llu entries)  build %8.2f -> %8.2f ms (%4.2fx)   "
              "probe %8.2f -> %8.2f ms (%4.2fx)\n",
              label, static_cast<unsigned long long>(entries),
              t.build_scalar_ms, t.build_batched_ms,
              t.build_scalar_ms / t.build_batched_ms, t.probe_scalar_ms,
              t.probe_batched_ms, t.probe_scalar_ms / t.probe_batched_ms);
}

}  // namespace

int main() {
  const bool small = std::getenv("UOT_JOIN_BENCH_SMALL") != nullptr;
  const int runs = Runs();
  // Out-of-cache: ~4M entries -> ~128MB of slots, far beyond LLC. In-cache:
  // 16K entries -> ~256KB of slots, L2-resident.
  const uint64_t incache_entries = small ? (1ull << 10) : (1ull << 14);
  const uint64_t outcache_entries = small ? (1ull << 14) : (1ull << 22);

  std::printf("Join kernel A/B: scalar vs batched+prefetched "
              "(batch %u, distance %d, best of %d runs)\n\n",
              kBatch, kPrefetchDistance, runs);

  BenchJson json("join_kernels");
  json.Set("batch_size", kBatch);
  json.Set("prefetch_distance", kPrefetchDistance);
  json.Set("incache_entries", static_cast<double>(incache_entries));
  json.Set("outcache_entries", static_cast<double>(outcache_entries));

  const KernelTimes incache = RunKernelAb(incache_entries, runs);
  PrintKernelRow("in-cache", incache_entries, incache);
  json.Set("probe_scalar_ms_incache", incache.probe_scalar_ms);
  json.Set("probe_batched_ms_incache", incache.probe_batched_ms);
  json.Set("probe_speedup_incache",
           incache.probe_scalar_ms / incache.probe_batched_ms);
  json.Set("build_speedup_incache",
           incache.build_scalar_ms / incache.build_batched_ms);

  const KernelTimes outcache = RunKernelAb(outcache_entries, runs);
  PrintKernelRow("out-of-cache", outcache_entries, outcache);
  json.Set("probe_scalar_ms_outcache", outcache.probe_scalar_ms);
  json.Set("probe_batched_ms_outcache", outcache.probe_batched_ms);
  json.Set("probe_speedup_outcache",
           outcache.probe_scalar_ms / outcache.probe_batched_ms);
  json.Set("build_scalar_ms_outcache", outcache.build_scalar_ms);
  json.Set("build_batched_ms_outcache", outcache.build_batched_ms);
  json.Set("build_speedup_outcache",
           outcache.build_scalar_ms / outcache.build_batched_ms);

  std::printf("\nConcurrent build, one shared table (%llu entries):\n",
              static_cast<unsigned long long>(outcache_entries));
  std::vector<uint64_t> spread_keys(outcache_entries);
  for (uint64_t i = 0; i < outcache_entries; ++i) spread_keys[i] = i * 37;
  double build_w1_ms = 0.0;
  for (const int threads : {1, 2, 4}) {
    const double ms = TimeConcurrentBuild(spread_keys, threads, runs);
    if (threads == 1) build_w1_ms = ms;
    std::printf("  w%d %8.2f ms  (%4.2fx vs w1)\n", threads, ms,
                build_w1_ms / ms);
    json.Set("build_concurrent_ms_w" + std::to_string(threads), ms);
    if (threads == 4) json.Set("build_scaling_w4_w1", build_w1_ms / ms);
  }

  // Duplicate keys: `dup` rows per key over keys [0, entries / dup), in
  // random order, built by 4 threads into each layout.
  std::printf("\nDuplicate-key build, 4 threads (%llu entries), ns per row:\n",
              static_cast<unsigned long long>(outcache_entries));
  const std::vector<uint64_t> order = ShuffledKeys(outcache_entries);
  for (const uint64_t dup : {1, 4, 15}) {
    const uint64_t range = (outcache_entries + dup - 1) / dup;
    std::vector<uint64_t> keys(outcache_entries);
    for (uint64_t i = 0; i < outcache_entries; ++i) {
      keys[i] = order[i] / 37 / dup;  // ShuffledKeys spaces keys by 37
    }
    const double rows = static_cast<double>(outcache_entries);
    const double hash_ns = TimeConcurrentBuild(keys, 4, runs) * 1e6 / rows;
    const double dense_ns =
        TimeConcurrentBuild(keys, 4, runs, range) * 1e6 / rows;
    std::printf("  %2llu rows/key  hash %7.2f   dense %7.2f   (%4.2fx)\n",
                static_cast<unsigned long long>(dup), hash_ns, dense_ns,
                hash_ns / dense_ns);
    const std::string tag = "build_ns_per_row_dup" + std::to_string(dup);
    json.Set(tag + "_hash", hash_ns);
    json.Set(tag + "_dense", dense_ns);
  }

  // Plan level: TPC-H Q3 (join-heavy) with tuple-at-a-time join knobs
  // (batch 1, no prefetch) vs the defaults, over the block-size grid and
  // both UoT extremes. Shows how much of the kernel win survives
  // end-to-end, where extraction/emission amortize it.
  const double sf = small ? std::min(ScaleFactor(), 0.01) : ScaleFactor();
  std::printf("\nPlan level: TPC-H Q3, SF=%.3f, %d workers\n", sf,
              Threads());
  TpchFixture fixture(sf, Layout::kColumnStore, MidBlockBytes());
  for (const size_t block_bytes : {SmallBlockBytes(), MidBlockBytes()}) {
    for (const bool whole_table : {false, true}) {
      TpchPlanConfig plan_config;
      plan_config.block_bytes = block_bytes;
      ExecConfig batch1;
      batch1.num_workers = Threads();
      batch1.uot = whole_table ? UotPolicy::HighUot() : UotPolicy::LowUot(1);
      ExecConfig batched = batch1;
      batch1.join.batch_size = 1;
      batch1.join.prefetch_distance = 0;
      const double batch1_ms =
          TimeQuery(3, fixture.db(), plan_config, batch1, runs).best_mean_ms;
      const double batched_ms =
          TimeQuery(3, fixture.db(), plan_config, batched, runs).best_mean_ms;
      const std::string tag = HumanBytes(block_bytes) +
                              (whole_table ? "_highuot" : "_lowuot");
      std::printf("  q3 %-14s batch1 %8.2f ms   batched %8.2f ms   %4.2fx\n",
                  tag.c_str(), batch1_ms, batched_ms, batch1_ms / batched_ms);
      json.Set("q3_" + tag + "_batch1_ms", batch1_ms);
      json.Set("q3_" + tag + "_batched_ms", batched_ms);
    }
  }

  json.Write();
  std::printf("\nTarget: >= 1.3x out-of-cache probe speedup "
              "(got %.2fx).\n",
              outcache.probe_scalar_ms / outcache.probe_batched_ms);
  return 0;
}

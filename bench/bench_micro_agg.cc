// Hash-aggregation scaling: select -> group-by aggregate over a synthetic
// (k INT64, v DOUBLE) table, sweeping the number of groups and of workers
// in vectorized and fused mode. Few groups measure the per-row accumulate
// loop; many groups (up to one per four rows) measure how well concurrent
// work orders merge their partials into the shared result — with one
// global merge lock, adding workers stops helping there.
//
// The dense arm aggregates the base table directly (no select) over keys
// 0..groups-1, so the operator picks the direct-indexed layout: one state
// array per worker, no hashing and no merge until Finish.
//
// Each point is the median query time over UOT_RUNS runs (default 5).
// Emits BENCH_aggregate.json with one `g<groups>_<mode>_w<workers>_ms`
// key per point and the 4-vs-2-worker ratio per group count and mode, and
// `dense_g<groups>_w<workers>_ms` keys for the dense arm.
// UOT_AGG_BENCH_SMALL=1 shrinks the table so CI can smoke-test the emitter
// in seconds.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "expr/predicate.h"
#include "expr/projection.h"
#include "plan/plan_builder.h"
#include "types/row_builder.h"
#include "util/random.h"

namespace {

using namespace uot;
using namespace uot::bench;

constexpr size_t kBlockBytes = 128 * 1024;

/// `rows` rows with k drawn uniformly from `groups` keys (every key
/// present) and v = row index. Keys are spread over the INT64 range unless
/// `narrow`, where they are 0..groups-1.
std::unique_ptr<Table> MakeInput(StorageManager* storage, uint64_t rows,
                                 uint64_t groups, bool narrow = false) {
  Schema schema({{"k", Type::Int64()}, {"v", Type::Double()}});
  auto table = std::make_unique<Table>("agg_in", schema, Layout::kRowStore,
                                       kBlockBytes, storage,
                                       MemoryCategory::kBaseTable);
  Random rng(static_cast<uint64_t>(groups));
  RowBuilder row(&table->schema());
  for (uint64_t i = 0; i < rows; ++i) {
    const uint64_t key =
        i < groups ? i
                   : static_cast<uint64_t>(
                         rng.Uniform(0, static_cast<int64_t>(groups) - 1));
    row.SetInt64(0, static_cast<int64_t>(narrow ? key : key * 2654435761ULL));
    row.SetDouble(1, static_cast<double>(i));
    table->AppendRow(row.data());
  }
  return table;
}

/// Median wall time (ms) of select(v >= 0) -> aggregate(k: count, sum v),
/// or with `leaf`, of the aggregate straight over the base table (which
/// must then pick the dense layout).
double TimeAggregate(StorageManager* storage, const Table& input, int workers,
                     PipelineMode mode, int runs, uint64_t expect_groups,
                     bool leaf = false) {
  std::vector<double> times;
  for (int r = 0; r < runs; ++r) {
    PlanBuilderConfig config;
    config.block_bytes = kBlockBytes;
    PlanBuilder builder(storage, config);
    PlanBuilder::Src in = PlanBuilder::Base(input);
    if (!leaf) {
      in = builder.Select(
          "sel", in,
          Cmp(CompareOp::kGe, Col(1, Type::Double()), LitDouble(0.0)),
          Projection::Identity(input.schema(), {0, 1}));
    }
    std::vector<AggSpec> aggs;
    aggs.push_back({AggFn::kCount, nullptr, "cnt"});
    aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum_v"});
    PlanBuilder::Src agg = builder.Aggregate("agg", in, {0}, std::move(aggs));
    std::unique_ptr<QueryPlan> plan = builder.Finish(agg);

    ExecConfig exec;
    exec.num_workers = workers;
    exec.uot = UotPolicy::LowUot(1);
    exec.pipeline_mode = mode;
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    if (plan->result_table()->NumRows() != expect_groups) {
      std::fprintf(stderr, "wrong group count: %llu, expected %llu\n",
                   static_cast<unsigned long long>(
                       plan->result_table()->NumRows()),
                   static_cast<unsigned long long>(expect_groups));
      std::exit(1);
    }
    if (leaf &&
        !dynamic_cast<const AggregateOperator&>(*plan->op(agg.op)).dense()) {
      std::fprintf(stderr, "leaf aggregate did not pick the dense layout\n");
      std::exit(1);
    }
    times.push_back(stats.QueryMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main() {
  const bool small = std::getenv("UOT_AGG_BENCH_SMALL") != nullptr;
  const uint64_t rows = small ? 40000 : 3000000;
  const std::vector<uint64_t> group_counts =
      small ? std::vector<uint64_t>{4, 1000, 10000}
            : std::vector<uint64_t>{4, 1000, 100000, 750000};
  const int runs = std::max(1, std::getenv("UOT_RUNS") != nullptr ? Runs() : 5);

  BenchJson json("aggregate");
  json.Set("rows", static_cast<double>(rows));
  json.Set("block_bytes", static_cast<double>(kBlockBytes));
  json.Set("runs", runs);
  std::printf("%-10s %-11s %10s %10s %10s %8s\n", "groups", "mode", "w1 ms",
              "w2 ms", "w4 ms", "w4/w2");
  for (const uint64_t groups : group_counts) {
    StorageManager storage;
    const std::unique_ptr<Table> input = MakeInput(&storage, rows, groups);
    for (const PipelineMode mode :
         {PipelineMode::kVectorized, PipelineMode::kFused}) {
      const std::string prefix = std::string("g")
                                     .append(std::to_string(groups))
                                     .append("_")
                                     .append(PipelineModeName(mode))
                                     .append("_");
      double ms[3];
      const int worker_counts[3] = {1, 2, 4};
      for (int i = 0; i < 3; ++i) {
        ms[i] = TimeAggregate(&storage, *input, worker_counts[i], mode, runs,
                              groups);
        json.Set(prefix + "w" + std::to_string(worker_counts[i]) + "_ms",
                 ms[i]);
      }
      json.Set(prefix + "w4_over_w2", ms[2] / ms[1]);
      std::printf("%-10llu %-11s %10.2f %10.2f %10.2f %8.3f\n",
                  static_cast<unsigned long long>(groups),
                  PipelineModeName(mode), ms[0], ms[1], ms[2], ms[2] / ms[1]);
    }
  }
  // Dense arm: the leaf aggregate over narrow keys.
  const std::vector<uint64_t> dense_groups =
      small ? std::vector<uint64_t>{1000, 10000}
            : std::vector<uint64_t>{1000, 100000};
  for (const uint64_t groups : dense_groups) {
    StorageManager storage;
    const std::unique_ptr<Table> input =
        MakeInput(&storage, rows, groups, /*narrow=*/true);
    const std::string prefix = "dense_g" + std::to_string(groups) + "_";
    double ms[3];
    const int worker_counts[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
      ms[i] = TimeAggregate(&storage, *input, worker_counts[i],
                            PipelineMode::kVectorized, runs, groups,
                            /*leaf=*/true);
      json.Set(prefix + "w" + std::to_string(worker_counts[i]) + "_ms", ms[i]);
    }
    json.Set(prefix + "w4_over_w2", ms[2] / ms[1]);
    std::printf("%-10llu %-11s %10.2f %10.2f %10.2f %8.3f\n",
                static_cast<unsigned long long>(groups), "dense", ms[0], ms[1],
                ms[2], ms[2] / ms[1]);
  }
  json.Write();
  return 0;
}

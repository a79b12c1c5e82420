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
// Two more leaf arms go dense on a base table: a TPC-H Q1-shaped one (two
// CHAR(1) keys, four SUMs, two of them over price arithmetic) and a scalar
// one (sum(v), no key: one group).
//
// The update-loop arm times AggLayout's update loops alone, per row, on
// block-sized batches of a COUNT and 1, 5 or 7 SUMs (5 is TPC-H Q1's
// count of distinct sums, 7 its count of SUM and AVG aggregates): the
// scatter loop over 1 to 750k groups and the one-group register loop. It
// is the measurement behind AggLayout::Update's choice between them.
//
// Each point is the median query time over UOT_RUNS runs (default 5).
// Emits BENCH_aggregate.json with one `g<groups>_<mode>_w<workers>_ms`
// key per point and the 4-vs-2-worker ratio per group count and mode,
// `dense_g<groups>_w<workers>_ms` keys for the dense arm,
// `q1_w<workers>_ms` and `scalar_w<workers>_ms` for the Q1-shaped and
// scalar arms, and `update_g<groups>_s<sums>_scatter_ns` and
// `update_g1_s<sums>_register_ns` (ns per row) for the update-loop arm.
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
#include "util/timer.h"

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

/// `rows` lineitem-like rows: (returnflag CHAR(1), linestatus CHAR(1),
/// quantity, extendedprice, discount, tax DOUBLE), with the four
/// (returnflag, linestatus) pairs TPC-H data has.
std::unique_ptr<Table> MakeQ1Input(StorageManager* storage, uint64_t rows) {
  Schema schema({{"flag", Type::Char(1)},
                 {"status", Type::Char(1)},
                 {"qty", Type::Double()},
                 {"price", Type::Double()},
                 {"disc", Type::Double()},
                 {"tax", Type::Double()}});
  auto table = std::make_unique<Table>("q1_in", schema, Layout::kColumnStore,
                                       kBlockBytes, storage,
                                       MemoryCategory::kBaseTable);
  static constexpr const char* kPairs[4] = {"AF", "NF", "NO", "RF"};
  Random rng(1);
  RowBuilder row(&table->schema());
  for (uint64_t i = 0; i < rows; ++i) {
    const char* pair = kPairs[rng.Uniform(0, 3)];
    row.SetChar(0, std::string(1, pair[0]));
    row.SetChar(1, std::string(1, pair[1]));
    row.SetDouble(2, static_cast<double>(rng.Uniform(1, 50)));
    row.SetDouble(3, static_cast<double>(rng.Uniform(90000, 10000000)) / 100);
    row.SetDouble(4, static_cast<double>(rng.Uniform(0, 10)) / 100);
    row.SetDouble(5, static_cast<double>(rng.Uniform(0, 8)) / 100);
    table->AppendRow(row.data());
  }
  return table;
}

/// Median wall time (ms) of a leaf aggregate over `input` that must pick
/// the dense layout and return `expect_groups` rows.
double TimeLeaf(StorageManager* storage, const Table& input, int workers,
                int runs, uint64_t expect_groups,
                const std::vector<int>& group_cols,
                std::vector<AggSpec> (*make_aggs)()) {
  std::vector<double> times;
  for (int r = 0; r < runs; ++r) {
    PlanBuilderConfig config;
    config.block_bytes = kBlockBytes;
    PlanBuilder builder(storage, config);
    PlanBuilder::Src agg = builder.Aggregate("agg", PlanBuilder::Base(input),
                                             group_cols, make_aggs());
    std::unique_ptr<QueryPlan> plan = builder.Finish(agg);
    ExecConfig exec;
    exec.num_workers = workers;
    exec.uot = UotPolicy::LowUot(1);
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    if (plan->result_table()->NumRows() != expect_groups ||
        !dynamic_cast<const AggregateOperator&>(*plan->op(agg.op)).dense()) {
      std::fprintf(stderr, "leaf arm: wrong groups or not dense\n");
      std::exit(1);
    }
    times.push_back(stats.QueryMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::vector<AggSpec> Q1Aggs() {
  auto price = [] { return Col(3, Type::Double()); };
  auto disc_price = [&] {
    return Mul(price(), Sub(LitDouble(1.0), Col(4, Type::Double())));
  };
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(2, Type::Double()), "sum_qty"});
  aggs.push_back({AggFn::kSum, price(), "sum_base_price"});
  aggs.push_back({AggFn::kSum, disc_price(), "sum_disc_price"});
  aggs.push_back({AggFn::kSum,
                  Mul(disc_price(), Add(LitDouble(1.0), Col(5, Type::Double()))),
                  "sum_charge"});
  aggs.push_back({AggFn::kCount, nullptr, "count_order"});
  return aggs;
}

std::vector<AggSpec> ScalarAggs() {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum_v"});
  return aggs;
}

/// Nanoseconds per row of AggLayout's scatter update loop and, for one
/// group, of its register loop (`*register_ns` is 0 otherwise), over `rows`
/// rows in batches of `batch`: a COUNT and `sums` SUMs, group ids uniform
/// over `groups`.
void TimeUpdateLoops(uint64_t rows, uint32_t batch, uint32_t groups,
                     int sums, int runs, double* scatter_ns,
                     double* register_ns) {
  std::vector<AggSpec> specs;
  specs.push_back({AggFn::kCount, nullptr, "cnt"});
  for (int a = 0; a < sums; ++a) {
    specs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
  }
  const AggLayout layout(specs);
  Random rng(groups);
  std::vector<uint32_t> ids(rows);
  std::vector<double> values(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    ids[i] = static_cast<uint32_t>(rng.Uniform(0, groups - 1));
    values[i] = static_cast<double>(i) * 0.37;
  }
  std::vector<AggWord> states(static_cast<size_t>(groups) * layout.words());
  std::vector<const double*> inputs(specs.size());
  auto time_loop = [&](bool one_group) {
    std::vector<double> times;
    for (int r = 0; r < runs; ++r) {
      for (size_t g = 0; g < groups; ++g) {
        std::copy(layout.init(), layout.init() + layout.words(),
                  states.data() + g * layout.words());
      }
      Timer timer;
      for (uint64_t b = 0; b < rows; b += batch) {
        const uint32_t n =
            static_cast<uint32_t>(std::min<uint64_t>(rows - b, batch));
        for (size_t a = 1; a < specs.size(); ++a) {
          inputs[a] = values.data() + b;
        }
        if (one_group) {
          layout.UpdateGroup(states.data(), n, inputs.data());
        } else {
          layout.UpdateScatter(ids.data() + b, n, inputs.data(),
                               states.data());
        }
      }
      times.push_back(timer.ElapsedMillis() * 1e6 /
                      static_cast<double>(rows));
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
  };
  *scatter_ns = time_loop(false);
  *register_ns = groups == 1 ? time_loop(true) : 0.0;
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
  // Leaf arms that the dense layout now covers: Q1's key pair and a
  // scalar aggregate.
  {
    StorageManager storage;
    const std::unique_ptr<Table> q1 = MakeQ1Input(&storage, rows);
    const std::unique_ptr<Table> kv = MakeInput(&storage, rows, 1000);
    const int worker_counts[3] = {1, 2, 4};
    double q1_ms[3];
    double scalar_ms[3];
    for (int i = 0; i < 3; ++i) {
      q1_ms[i] = TimeLeaf(&storage, *q1, worker_counts[i], runs, 4, {0, 1},
                          Q1Aggs);
      scalar_ms[i] =
          TimeLeaf(&storage, *kv, worker_counts[i], runs, 1, {}, ScalarAggs);
      json.Set("q1_w" + std::to_string(worker_counts[i]) + "_ms", q1_ms[i]);
      json.Set("scalar_w" + std::to_string(worker_counts[i]) + "_ms",
               scalar_ms[i]);
    }
    std::printf("%-10s %-11s %10.2f %10.2f %10.2f %8.3f\n", "4", "q1",
                q1_ms[0], q1_ms[1], q1_ms[2], q1_ms[2] / q1_ms[1]);
    std::printf("%-10s %-11s %10.2f %10.2f %10.2f %8.3f\n", "1", "scalar",
                scalar_ms[0], scalar_ms[1], scalar_ms[2],
                scalar_ms[2] / scalar_ms[1]);
  }
  // Update loops alone, in batches of one 128 KiB block of (k, v) rows.
  const uint32_t batch = static_cast<uint32_t>(kBlockBytes / 16);
  const std::vector<uint32_t> loop_groups =
      small ? std::vector<uint32_t>{1, 4, 1000}
            : std::vector<uint32_t>{1, 2, 4, 16, 1000, 100000, 750000};
  std::printf("\n%-8s %-6s %14s %15s\n", "groups", "sums", "scatter ns/row",
              "register ns/row");
  for (const int sums : {1, 5, 7}) {
    for (const uint32_t groups : loop_groups) {
      double scatter_ns = 0;
      double register_ns = 0;
      TimeUpdateLoops(rows, batch, groups, sums, runs, &scatter_ns,
                      &register_ns);
      const std::string prefix = "update_g" + std::to_string(groups) + "_s" +
                                 std::to_string(sums) + "_";
      json.Set(prefix + "scatter_ns", scatter_ns);
      if (groups == 1) json.Set(prefix + "register_ns", register_ns);
      std::printf("%-8u %-6d %14.2f %15.2f\n", groups, sums, scatter_ns,
                  register_ns);
    }
  }
  json.Set("update_batch_rows", batch);
  json.Write();
  return 0;
}

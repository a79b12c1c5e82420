// Fused tuple-at-a-time pipelines vs the vectorized spectrum (ISSUE 9
// satellite): a Q3-shaped select -> probe -> probe -> aggregate chain over
// synthetic wide-row tables, run three ways --
//   materialize      whole-table UoT on every edge (the paper's wide end)
//   vectorized-best  CostModelUotChooser's per-edge UoT picks
//   fused            the chain collapsed into single work orders per morsel
//                    (zero intermediate-block materialization)
// -- at two working-set sizes: in-cache (intermediates fit in LLC) and
// out-of-cache (they do not, so the vectorized arms pay memory bandwidth
// for every intermediate row the fused arm never writes).
//
// Also reports CostModelUotChooser::ChooseFusedChain's verdict for each
// scenario so CI can check the model picks fused exactly where fused wins.
//
// Emits BENCH_fused_pipeline.json. UOT_FUSED_BENCH_SMALL=1 shrinks the
// tables for the CI smoke arm; UOT_THREADS / UOT_RUNS as usual.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "types/row_builder.h"
#include "expr/predicate.h"
#include "expr/projection.h"
#include "fused/pipeline_fuser.h"
#include "model/uot_chooser.h"
#include "plan/plan_builder.h"

namespace {

using namespace uot;
using namespace uot::bench;

/// Extra double payload columns on the fact table: wide intermediate rows
/// are where fusion pays (every byte of them is materialization traffic
/// the vectorized arms must spend and the fused arm skips).
constexpr int kPayloadCols = 6;
constexpr int32_t kFanout = 64;

std::unique_ptr<Table> MakeFactTable(StorageManager* storage,
                                     const std::string& name, uint64_t rows,
                                     size_t block_bytes) {
  std::vector<Column> cols = {{"k", Type::Int32()}, {"v", Type::Double()}};
  for (int p = 0; p < kPayloadCols; ++p) {
    cols.push_back({std::string("p").append(std::to_string(p)),
                    Type::Double()});
  }
  Schema schema(std::move(cols));
  auto table = std::make_unique<Table>(name, schema, Layout::kColumnStore,
                                       block_bytes, storage,
                                       MemoryCategory::kBaseTable);
  RowBuilder row(&table->schema());
  for (uint64_t i = 0; i < rows; ++i) {
    row.SetInt32(0, static_cast<int32_t>(i % kFanout));
    row.SetDouble(1, static_cast<double>(i));
    for (int p = 0; p < kPayloadCols; ++p) {
      row.SetDouble(2 + p, static_cast<double>(i + p));
    }
    table->AppendRow(row.data());
  }
  return table;
}

std::unique_ptr<Table> MakeDimTable(StorageManager* storage,
                                    const std::string& name,
                                    size_t block_bytes) {
  Schema schema({{"k", Type::Int32()}, {"d", Type::Double()}});
  auto table = std::make_unique<Table>(name, schema, Layout::kColumnStore,
                                       block_bytes, storage,
                                       MemoryCategory::kBaseTable);
  RowBuilder row(&table->schema());
  for (int32_t i = 0; i < kFanout; ++i) {
    row.SetInt32(0, i);
    row.SetDouble(1, static_cast<double>(i) * 0.5);
    table->AppendRow(row.data());
  }
  return table;
}

/// The Q3 shape: sel(fact, v <= threshold) -> probe(dim1) -> probe(dim2)
/// -> agg(group by k: count, sum(v), sum(p0)). `fuse` adds the explicit
/// fused-pipeline annotation over the whole chain.
std::unique_ptr<QueryPlan> MakeChainPlan(StorageManager* storage,
                                         const Table& fact, const Table& dim1,
                                         const Table& dim2, double threshold,
                                         size_t block_bytes, bool fuse) {
  PlanBuilderConfig config;
  config.block_bytes = block_bytes;
  PlanBuilder builder(storage, config);
  BuildHashOperator* build1 =
      builder.Build("build1", PlanBuilder::Base(dim1), {0}, {1});
  BuildHashOperator* build2 =
      builder.Build("build2", PlanBuilder::Base(dim2), {0}, {1});

  std::vector<int> all_cols;
  for (int c = 0; c < 2 + kPayloadCols; ++c) all_cols.push_back(c);
  PlanBuilder::Src sel = builder.Select(
      "sel", PlanBuilder::Base(fact),
      Cmp(CompareOp::kLe, Col(1, Type::Double()), LitDouble(threshold)),
      Projection::Identity(fact.schema(), all_cols));
  PlanBuilder::Src probe1 = builder.Probe("probe1", sel, build1, {0}, all_cols);
  std::vector<int> probe1_cols = all_cols;
  probe1_cols.push_back(2 + kPayloadCols);  // dim1 payload rides along
  PlanBuilder::Src probe2 =
      builder.Probe("probe2", probe1, build2, {0}, probe1_cols);

  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum_v"});
  aggs.push_back({AggFn::kSum, Col(2, Type::Double()), "sum_p0"});
  PlanBuilder::Src agg =
      builder.Aggregate("agg", probe2, {0}, std::move(aggs));
  if (fuse) builder.AnnotateFusedPipeline({sel, probe1, probe2, agg});
  return builder.Finish(agg);
}

struct ArmResult {
  double best_ms = 1e300;
  uint64_t transfers = 0;
  uint64_t bytes_delivered = 0;
};

uint64_t TotalTransfers(const ExecutionStats& stats) {
  uint64_t total = 0;
  for (const EdgeStats& e : stats.edges) total += e.transfers;
  return total;
}

uint64_t TotalBytesDelivered(const ExecutionStats& stats) {
  uint64_t total = 0;
  for (const EdgeStats& e : stats.edges) total += e.bytes_delivered;
  return total;
}

/// One scenario (one fact-table size): calibrate, model-choose, run the
/// three arms best-of-`runs`, report wall clock + transfer volume + the
/// model's fused-vs-vectorized verdict.
void RunScenario(const std::string& key, uint64_t rows, size_t block_bytes,
                 int workers, int runs, BenchJson* json) {
  StorageManager storage;
  auto fact = MakeFactTable(&storage, "fact", rows, block_bytes);
  auto dim1 = MakeDimTable(&storage, "dim1", block_bytes);
  auto dim2 = MakeDimTable(&storage, "dim2", block_bytes);
  const double threshold = static_cast<double>(rows) * 0.9;

  const uint64_t row_width = fact->schema().row_width();
  std::printf("\n%s: %llu rows x %llu B (%.1f MB fact), blocks %s\n",
              key.c_str(), static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(row_width),
              static_cast<double>(rows * row_width) / 1e6,
              HumanBytes(block_bytes).c_str());
  json->Set(key + "_rows", static_cast<double>(rows));

  // Calibration: one materializing run with intermediates kept gives
  // oracle per-edge cardinalities for both choosers.
  auto calib_plan = MakeChainPlan(&storage, *fact, *dim1, *dim2, threshold,
                                  block_bytes, /*fuse=*/false);
  ExecConfig calib;
  calib.num_workers = workers;
  calib.uot = UotPolicy::HighUot();
  calib.drop_consumed_blocks = false;
  QueryExecutor::Execute(calib_plan.get(), calib);
  const std::vector<EdgeEstimate> estimates =
      CostModelUotChooser::EstimatesFromExecutedPlan(*calib_plan);

  CostModelUotChooser::Options chooser_options;
  chooser_options.threads = workers;
  const CostModelUotChooser chooser(chooser_options);
  const std::vector<UotChoice> choices =
      chooser.ChoosePlan(*calib_plan, estimates);

  // The model's fused-vs-vectorized call over the detected chain.
  const std::vector<std::vector<int>> chains =
      fused::PipelineFuser::DetectFusablePipelines(*calib_plan);
  FusedChoice verdict;
  if (!chains.empty()) {
    verdict = chooser.ChooseFusedChain(*calib_plan, chains.front(), estimates);
    std::printf("  model: %s\n", verdict.ToString().c_str());
  }
  json->Set(key + "_model_chose_fused", verdict.fuse ? 1.0 : 0.0);
  json->Set(key + "_model_fused_cost_ns", verdict.fused_cost_ns);
  json->Set(key + "_model_vectorized_cost_ns", verdict.vectorized_cost_ns);
  calib_plan.reset();

  struct Arm {
    const char* key;
    const char* label;
    bool fuse;
    bool materialize;
  };
  const Arm arms[] = {
      {"materialize", "materialize", false, true},
      {"vectorized", "vectorized-best", false, false},
      {"fused", "fused", true, false},
  };
  ArmResult results[3];
  for (int a = 0; a < 3; ++a) {
    for (int r = 0; r < runs; ++r) {
      auto plan = MakeChainPlan(&storage, *fact, *dim1, *dim2, threshold,
                                block_bytes, arms[a].fuse);
      ExecConfig exec;
      exec.num_workers = workers;
      if (arms[a].fuse) {
        exec.pipeline_mode = PipelineMode::kFused;
      } else if (arms[a].materialize) {
        exec.uot = UotPolicy::HighUot();
      } else {
        CostModelUotChooser::AnnotatePlan(plan.get(), choices);
      }
      const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
      if (stats.QueryMillis() < results[a].best_ms) {
        results[a].best_ms = stats.QueryMillis();
        results[a].transfers = TotalTransfers(stats);
        results[a].bytes_delivered = TotalBytesDelivered(stats);
      }
    }
    std::printf("  %-16s %9.2f ms  %6llu transfers  %10.1f KB delivered\n",
                arms[a].label, results[a].best_ms,
                static_cast<unsigned long long>(results[a].transfers),
                static_cast<double>(results[a].bytes_delivered) / 1024.0);
    const std::string prefix = key + "_" + arms[a].key;
    json->Set(prefix + "_ms", results[a].best_ms);
    json->Set(prefix + "_transfers",
              static_cast<double>(results[a].transfers));
    json->Set(prefix + "_bytes_delivered",
              static_cast<double>(results[a].bytes_delivered));
  }
  json->Set(key + "_fused_speedup_vs_vectorized",
            results[2].best_ms > 0.0 ? results[1].best_ms / results[2].best_ms
                                     : 0.0);
  json->Set(key + "_fused_speedup_vs_materialize",
            results[2].best_ms > 0.0 ? results[0].best_ms / results[2].best_ms
                                     : 0.0);
}

}  // namespace

int main() {
  const int workers = Threads();
  const int runs = Runs();
  const bool small = std::getenv("UOT_FUSED_BENCH_SMALL") != nullptr;

  std::printf("Fused pipeline vs vectorized spectrum "
              "(%d workers, %d runs%s)\n",
              workers, runs, small ? ", SMALL smoke sizes" : "");

  BenchJson json("fused_pipeline");
  json.Set("workers", workers);
  json.Set("small", small ? 1.0 : 0.0);

  // In-cache: the chain's intermediates fit in LLC, so materialization is
  // cheap and the fused win (if any) comes from dispatch savings alone.
  // Out-of-cache: intermediates are tens of MB per edge, so the
  // vectorized arms pay DRAM bandwidth the fused arm never touches.
  const uint64_t in_cache_rows = small ? 5000 : 20000;
  const uint64_t out_of_cache_rows = small ? 20000 : 2000000;
  RunScenario("in_cache", in_cache_rows, SmallBlockBytes(), workers, runs,
              &json);
  RunScenario("out_of_cache", out_of_cache_rows, MidBlockBytes(), workers,
              runs, &json);

  json.Write();
  std::printf("\nTarget: out-of-cache fused beats both vectorized arms on "
              "wall clock with zero intermediate transfers, and the model's "
              "ChooseFusedChain picks fused there.\n");
  return 0;
}

// Fused-pipeline tests: fused row-group execution must be byte-identical to
// vectorized execution across manual chains, the full TPC-H/SSB suites and
// the RandomJoinQuery fuzz corpus, while reporting zero intermediate-block
// transfers on fused interior edges.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "exec/query_executor.h"
#include "model/uot_chooser.h"
#include "expr/predicate.h"
#include "expr/projection.h"
#include "fused/pipeline_fuser.h"
#include "obs/trace_session.h"
#include "plan/plan_builder.h"
#include "plan/query_plan.h"
#include "scheduler/execution_stats.h"
#include "ssb/ssb_queries.h"
#include "storage/storage_manager.h"
#include "test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace uot {
namespace {

using ::uot::testing::CanonicalRowsNear;
using ::uot::testing::MakeKvTable;
using ::uot::testing::RandomJoinQuery;

ExecConfig ModeConfig(PipelineMode mode) {
  ExecConfig config;
  config.num_workers = 2;
  config.uot = UotPolicy::LowUot(2);
  config.pipeline_mode = mode;
  return config;
}

/// Fused-run invariants: every edge interior to an executed chain reports
/// zero produced/delivered blocks and zero transfers (the zero-copy claim
/// of the fused mode, checked against the honest per-edge accounting), and
/// every non-fused edge still satisfies the delivery invariants.
void CheckFusedInvariants(const QueryPlan& plan, const ExecutionStats& stats,
                          const std::string& label) {
  ASSERT_EQ(stats.edges.size(), plan.streaming_edges().size()) << label;
  size_t fused_edges = 0;
  for (size_t e = 0; e < stats.edges.size(); ++e) {
    const EdgeStats& es = stats.edges[e];
    if (es.fused) {
      ++fused_edges;
      EXPECT_EQ(es.blocks_produced, 0u) << label << " fused edge " << e;
      EXPECT_EQ(es.blocks_delivered, 0u) << label << " fused edge " << e;
      EXPECT_EQ(es.transfers, 0u) << label << " fused edge " << e;
      EXPECT_EQ(es.bytes_delivered, 0u) << label << " fused edge " << e;
      EXPECT_EQ(es.max_buffered_blocks, 0u) << label << " fused edge " << e;
    } else {
      EXPECT_EQ(es.blocks_delivered, es.blocks_produced)
          << label << " edge " << e;
      if (es.blocks_produced > 0) {
        EXPECT_GE(es.transfers, 1u) << label << " edge " << e;
      }
    }
  }
  // Each chain of k ops marks exactly k-1 interior edges fused.
  size_t expected_fused_edges = 0;
  for (const FusedChainStats& chain : stats.fused_chains) {
    ASSERT_GE(chain.ops.size(), 2u) << label;
    expected_fused_edges += chain.ops.size() - 1;
    ASSERT_EQ(chain.stages.size(), chain.ops.size()) << label;
    // Stage row flow is monotone non-increasing across select stages and
    // consistent between adjacent stages: what a stage emits is what the
    // next stage sees.
    for (size_t s = 0; s + 1 < chain.stages.size(); ++s) {
      EXPECT_EQ(chain.stages[s].rows_out, chain.stages[s + 1].rows_in)
          << label << " chain stage " << s;
    }
    for (const FusedStageStats& stage : chain.stages) {
      if (stage.kind == "select") {
        EXPECT_LE(stage.rows_out, stage.rows_in) << label << " " << stage.name;
      }
      EXPECT_FALSE(stage.name.empty()) << label;
    }
  }
  EXPECT_EQ(fused_edges, expected_fused_edges) << label;
}

size_t CountChainOps(const ExecutionStats& stats) {
  size_t n = 0;
  for (const FusedChainStats& chain : stats.fused_chains) {
    n += chain.ops.size();
  }
  return n;
}

/// A Q3-shaped select -> probe -> probe -> aggregate plan over kv tables.
/// `threshold` controls the selection's pass rate (v <= threshold; the
/// kv value column is the row index). Small blocks force many head work
/// orders and row groups that straddle block boundaries.
std::unique_ptr<QueryPlan> MakeChainPlan(StorageManager* storage,
                                         const Table& probe, const Table& dim1,
                                         const Table& dim2, double threshold,
                                         bool annotate, bool use_lip) {
  PlanBuilderConfig config;
  config.block_bytes = 2048;
  config.use_lip = use_lip;
  PlanBuilder builder(storage, config);
  BuildHashOperator* build1 =
      builder.Build("build1", PlanBuilder::Base(dim1), {0}, {1});
  BuildHashOperator* build2 =
      builder.Build("build2", PlanBuilder::Base(dim2), {0}, {1});
  const Schema& probe_schema = probe.schema();
  PlanBuilder::Src sel = builder.Select(
      "sel", PlanBuilder::Base(probe),
      Cmp(CompareOp::kLe, Col(1, Type::Double()), LitDouble(threshold)),
      Projection::Identity(probe_schema, {0, 1}), {{build1, 0}});
  PlanBuilder::Src probe1 =
      builder.Probe("probe1", sel, build1, {0}, {0, 1});
  PlanBuilder::Src probe2 =
      builder.Probe("probe2", probe1, build2, {0}, {0, 1, 2});
  PlanBuilder::Src agg = builder.Aggregate(
      "agg", probe2, {0},
      [] {
        std::vector<AggSpec> aggs;
        aggs.push_back({AggFn::kCount, nullptr, "cnt"});
        aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum_v"});
        aggs.push_back({AggFn::kMin, Col(2, Type::Double()), "min_p"});
        return aggs;
      }());
  if (annotate) builder.AnnotateFusedPipeline({sel, probe1, probe2, agg});
  return builder.Finish(agg);
}

TEST(PipelineFuserTest, DetectsSelectProbeAggregateChain) {
  StorageManager storage;
  std::unique_ptr<Table> probe = MakeKvTable(&storage, "probe", 3000, 64);
  std::unique_ptr<Table> dim1 = MakeKvTable(&storage, "dim1", 64, 64);
  std::unique_ptr<Table> dim2 = MakeKvTable(&storage, "dim2", 64, 64);
  std::unique_ptr<QueryPlan> plan = MakeChainPlan(
      &storage, *probe, *dim1, *dim2, 1500.0, false, false);

  const std::vector<std::vector<int>> chains =
      fused::PipelineFuser::DetectFusablePipelines(*plan);
  ASSERT_EQ(chains.size(), 1u);
  // The whole select -> probe -> probe -> aggregate spine fuses; the two
  // build sides (pipeline breakers) stay out.
  ASSERT_EQ(chains[0].size(), 4u);
  EXPECT_EQ(plan->op(chains[0][0])->name(), "sel");
  EXPECT_EQ(plan->op(chains[0][1])->name(), "probe1");
  EXPECT_EQ(plan->op(chains[0][2])->name(), "probe2");
  EXPECT_EQ(plan->op(chains[0][3])->name(), "agg");
  EXPECT_TRUE(fused::PipelineFuser::IsFusableChain(*plan, chains[0]));

  // Sub-chains are valid too; reversed or gapped sequences are not.
  EXPECT_TRUE(fused::PipelineFuser::IsFusableChain(
      *plan, {chains[0][0], chains[0][1]}));
  EXPECT_FALSE(fused::PipelineFuser::IsFusableChain(
      *plan, {chains[0][1], chains[0][0]}));
  EXPECT_FALSE(fused::PipelineFuser::IsFusableChain(
      *plan, {chains[0][0], chains[0][2]}));
  EXPECT_FALSE(fused::PipelineFuser::IsFusableChain(*plan, {chains[0][0]}));
}

TEST(PipelineFuserTest, RadixPartitionedProbesAreNotFusable) {
  // Radix-partitioned joins interpose exchange operators; exchange edges
  // are pipeline breakers, so no chain may contain a probe.
  StorageManager storage;
  RandomJoinQuery query(&storage, 3);
  std::unique_ptr<QueryPlan> plan = query.MakePlan(&storage, 2);
  const std::vector<std::vector<int>> chains =
      fused::PipelineFuser::DetectFusablePipelines(*plan);
  for (const std::vector<int>& chain : chains) {
    for (int op : chain) {
      EXPECT_EQ(dynamic_cast<const ProbeHashOperator*>(plan->op(op)), nullptr)
          << "radix-partitioned probe " << plan->op(op)->name()
          << " must not fuse";
    }
  }
}

TEST(PipelineFuserTest, AnnotationShowsInPlanToString) {
  StorageManager storage;
  std::unique_ptr<Table> probe = MakeKvTable(&storage, "probe", 1000, 16);
  std::unique_ptr<Table> dim1 = MakeKvTable(&storage, "dim1", 16, 16);
  std::unique_ptr<Table> dim2 = MakeKvTable(&storage, "dim2", 16, 16);
  std::unique_ptr<QueryPlan> plan =
      MakeChainPlan(&storage, *probe, *dim1, *dim2, 500.0, true, false);
  ASSERT_EQ(plan->fused_pipelines().size(), 1u);
  const std::string text = plan->ToString();
  EXPECT_NE(text.find("fused[0]"), std::string::npos) << text;
}

class FusedChainTest : public ::testing::Test {
 protected:
  /// Executes the chain plan under `mode` and returns canonical rows,
  /// checking invariants and (fused) chain accounting.
  std::string Run(PipelineMode mode, double threshold, bool annotate,
                  bool use_lip, uint64_t* rows_into_agg = nullptr) {
    StorageManager storage;
    std::unique_ptr<Table> probe = MakeKvTable(&storage, "probe", 5000, 96);
    std::unique_ptr<Table> dim1 = MakeKvTable(&storage, "dim1", 96, 96);
    std::unique_ptr<Table> dim2 = MakeKvTable(&storage, "dim2", 96, 96);
    std::unique_ptr<QueryPlan> plan = MakeChainPlan(
        &storage, *probe, *dim1, *dim2, threshold, annotate, use_lip);
    const std::string label =
        std::string(PipelineModeName(mode)) + " thr=" +
        std::to_string(threshold) + (use_lip ? " lip" : "");
    const ExecutionStats stats =
        QueryExecutor::Execute(plan.get(), ModeConfig(mode));
    CheckFusedInvariants(*plan, stats, label);
    if (mode == PipelineMode::kFused) {
      EXPECT_EQ(stats.fused_chains.size(), 1u) << label;
      if (stats.fused_chains.size() == 1) {
        const FusedChainStats& chain = stats.fused_chains[0];
        EXPECT_EQ(chain.ops.size(), 4u) << label;
        EXPECT_GE(chain.work_orders, 1u) << label;
        EXPECT_EQ(chain.stages.front().rows_in, probe->NumRows()) << label;
        if (rows_into_agg != nullptr) {
          *rows_into_agg = chain.stages.back().rows_in;
        }
      }
    } else {
      EXPECT_TRUE(stats.fused_chains.empty()) << label;
    }
    return CanonicalRows(*plan->result_table());
  }
};

TEST_F(FusedChainTest, FusedMatchesVectorizedOnManualChain) {
  for (const bool annotate : {false, true}) {
    const std::string vec =
        Run(PipelineMode::kVectorized, 2500.0, annotate, false);
    const std::string fus =
        Run(PipelineMode::kFused, 2500.0, annotate, false);
    ASSERT_FALSE(vec.empty());
    EXPECT_TRUE(CanonicalRowsNear(fus, vec)) << "annotate=" << annotate;
  }
}

TEST_F(FusedChainTest, FusedMatchesVectorizedWithLipFilters) {
  const std::string vec =
      Run(PipelineMode::kVectorized, 2500.0, false, true);
  const std::string fus = Run(PipelineMode::kFused, 2500.0, false, true);
  ASSERT_FALSE(vec.empty());
  EXPECT_TRUE(CanonicalRowsNear(fus, vec));
}

TEST_F(FusedChainTest, EmptySelectionProducesIdenticalEmptyAggregates) {
  // threshold < 0 selects nothing: the fused chain must still finish its
  // lifecycle cleanly and produce the same (group-less, hence empty)
  // aggregate output as vectorized.
  uint64_t rows_into_agg = 123;
  const std::string vec =
      Run(PipelineMode::kVectorized, -1.0, false, false);
  const std::string fus =
      Run(PipelineMode::kFused, -1.0, false, false, &rows_into_agg);
  EXPECT_EQ(fus, vec);
  EXPECT_EQ(rows_into_agg, 0u);
}

TEST(FusedChainTelemetryTest, FusedProbesFeedJoinCountersAndSpans) {
  // Fused probe stages run the operators' batched probe kernel, so they
  // count batches and prefetches into each probe operator's stats like
  // vectorized probes, and their join-stage spans name the probe
  // operator, not the chain head.
  StorageManager storage;
  std::unique_ptr<Table> probe = MakeKvTable(&storage, "probe", 5000, 96);
  std::unique_ptr<Table> dim1 = MakeKvTable(&storage, "dim1", 96, 96);
  std::unique_ptr<Table> dim2 = MakeKvTable(&storage, "dim2", 96, 96);
  std::unique_ptr<QueryPlan> plan =
      MakeChainPlan(&storage, *probe, *dim1, *dim2, 2500.0, false, false);
  obs::TraceSession trace;
  ExecConfig config = ModeConfig(PipelineMode::kFused);
  config.trace = &trace;
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), config);
  ASSERT_EQ(stats.fused_chains.size(), 1u);

  std::set<int> probe_ops;
  for (int i = 0; i < plan->num_operators(); ++i) {
    if (dynamic_cast<const ProbeHashOperator*>(plan->op(i)) != nullptr) {
      probe_ops.insert(i);
    }
  }
  ASSERT_EQ(probe_ops.size(), 2u);
  for (const int op : probe_ops) {
    const OperatorStats& os = stats.operators[static_cast<size_t>(op)];
    EXPECT_GT(os.join_batches, 0u) << os.name;
    EXPECT_GT(os.join_prefetches, 0u) << os.name;
  }
  std::set<int> probe_span_ops;
  for (const obs::TraceEvent& e : trace.SortedEvents()) {
    if (e.type == obs::TraceEventType::kJoinBatchStage &&
        e.arg1 == static_cast<int32_t>(obs::JoinBatchStage::kProbe)) {
      probe_span_ops.insert(e.arg0);
    }
  }
  EXPECT_EQ(probe_span_ops, probe_ops);
  EXPECT_EQ(probe_span_ops.count(stats.fused_chains[0].ops.front()), 0u);
}

TEST(FusedTpchTest, AllSupportedQueriesMatchVectorized) {
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = 0.004;
  config.block_bytes = 64 * 1024;
  db.Generate(config);

  TpchPlanConfig plan_config;
  plan_config.block_bytes = 32 * 1024;
  size_t fused_chain_ops = 0;
  for (const int query : SupportedTpchQueries()) {
    SCOPED_TRACE("TPC-H Q" + std::to_string(query));
    std::unique_ptr<QueryPlan> vec_plan =
        BuildTpchPlan(query, db, plan_config);
    const ExecutionStats vec_stats = QueryExecutor::Execute(
        vec_plan.get(), ModeConfig(PipelineMode::kVectorized));
    EXPECT_TRUE(vec_stats.fused_chains.empty());
    const std::string expected = CanonicalRows(*vec_plan->result_table());

    std::unique_ptr<QueryPlan> fused_plan =
        BuildTpchPlan(query, db, plan_config);
    const ExecutionStats fused_stats = QueryExecutor::Execute(
        fused_plan.get(), ModeConfig(PipelineMode::kFused));
    CheckFusedInvariants(*fused_plan, fused_stats,
                         std::string("Q").append(std::to_string(query)));
    fused_chain_ops += CountChainOps(fused_stats);
    EXPECT_TRUE(CanonicalRowsNear(
        CanonicalRows(*fused_plan->result_table()), expected));
  }
  // The suite must actually exercise the fused interpreter, not fall back
  // to vectorized everywhere.
  EXPECT_GT(fused_chain_ops, 0u);
}

TEST(FusedSsbTest, AllQueriesMatchVectorized) {
  StorageManager storage;
  SsbDatabase db(&storage);
  SsbConfig config;
  config.scale_factor = 0.003;
  config.block_bytes = 64 * 1024;
  db.Generate(config);

  PlanBuilderConfig plan_config;
  plan_config.block_bytes = 32 * 1024;
  size_t fused_chain_ops = 0;
  for (const int query : SupportedSsbQueries()) {
    SCOPED_TRACE("SSB " + std::to_string(query / 10) + "." +
                 std::to_string(query % 10));
    std::unique_ptr<QueryPlan> vec_plan = BuildSsbPlan(query, db, plan_config);
    const std::string expected = [&] {
      QueryExecutor::Execute(vec_plan.get(),
                             ModeConfig(PipelineMode::kVectorized));
      return CanonicalRows(*vec_plan->result_table());
    }();

    std::unique_ptr<QueryPlan> fused_plan =
        BuildSsbPlan(query, db, plan_config);
    const ExecutionStats fused_stats = QueryExecutor::Execute(
        fused_plan.get(), ModeConfig(PipelineMode::kFused));
    CheckFusedInvariants(*fused_plan, fused_stats, "ssb");
    fused_chain_ops += CountChainOps(fused_stats);
    EXPECT_TRUE(CanonicalRowsNear(
        CanonicalRows(*fused_plan->result_table()), expected));
  }
  EXPECT_GT(fused_chain_ops, 0u);
}

TEST(FusedFuzzTest, SeededRandomPlansAreByteIdenticalToVectorized) {
  // The fuzz plans end in a probe (no aggregate), so fused and vectorized
  // results must be *exactly* equal, not just numerically near. Covers
  // semi/anti joins, residual conditions, LIP filters, two-column keys and
  // block-boundary row groups (probe block_bytes is 2048).
  const int num_seeds = ::uot::testing::NumFuzzSeeds();
  size_t seeds_with_chain = 0;
  for (int seed = 0; seed < num_seeds; ++seed) {
    StorageManager storage;
    RandomJoinQuery query(&storage, static_cast<uint64_t>(seed));
    SCOPED_TRACE(query.Description());

    std::unique_ptr<QueryPlan> vec_plan = query.MakePlan(&storage, 0);
    QueryExecutor::Execute(vec_plan.get(),
                           ModeConfig(PipelineMode::kVectorized));
    const std::string expected = CanonicalRows(*vec_plan->result_table());

    std::unique_ptr<QueryPlan> fused_plan = query.MakePlan(&storage, 0);
    const ExecutionStats fused_stats = QueryExecutor::Execute(
        fused_plan.get(), ModeConfig(PipelineMode::kFused));
    CheckFusedInvariants(*fused_plan, fused_stats, query.Description());
    if (!fused_stats.fused_chains.empty()) ++seeds_with_chain;
    EXPECT_EQ(CanonicalRows(*fused_plan->result_table()), expected);

    // Every fifth seed also re-runs radix-partitioned under kFused: the
    // mode must degrade gracefully to vectorized around exchanges.
    if (seed % 5 == 0) {
      const int radix_bits = 1 + seed % 6;
      std::unique_ptr<QueryPlan> radix_plan =
          query.MakePlan(&storage, radix_bits);
      const ExecutionStats radix_stats = QueryExecutor::Execute(
          radix_plan.get(), ModeConfig(PipelineMode::kFused));
      CheckFusedInvariants(*radix_plan, radix_stats, "radix fused");
      EXPECT_EQ(CanonicalRows(*radix_plan->result_table()), expected)
          << "radix=" << radix_bits;
    }
  }
  // Most fuzz plans contain at least one select -> probe chain.
  EXPECT_GT(seeds_with_chain, static_cast<size_t>(num_seeds) / 2);
}

TEST(FusedModelTest, ChooserPicksFusedForWideChainsVectorizedForNarrow) {
  StorageManager storage;
  std::unique_ptr<Table> probe = MakeKvTable(&storage, "probe", 3000, 64);
  std::unique_ptr<Table> dim1 = MakeKvTable(&storage, "dim1", 64, 64);
  std::unique_ptr<Table> dim2 = MakeKvTable(&storage, "dim2", 64, 64);
  std::unique_ptr<QueryPlan> plan =
      MakeChainPlan(&storage, *probe, *dim1, *dim2, 1500.0, false, false);
  const std::vector<std::vector<int>> chains =
      fused::PipelineFuser::DetectFusablePipelines(*plan);
  ASSERT_EQ(chains.size(), 1u);

  CostModelUotChooser chooser;
  const auto estimates_for = [&](uint64_t rows, double row_bytes) {
    std::vector<EdgeEstimate> estimates(plan->streaming_edges().size());
    for (EdgeEstimate& est : estimates) {
      est.rows = rows;
      est.row_bytes = row_bytes;
    }
    return estimates;
  };

  // Wide intermediates are expensive to materialize: fuse.
  const FusedChoice wide = chooser.ChooseFusedChain(
      *plan, chains[0], estimates_for(100000, 64.0));
  EXPECT_TRUE(wide.fuse) << wide.ToString();
  EXPECT_LT(wide.fused_cost_ns, wide.vectorized_cost_ns);

  // Narrow intermediates are cheap to materialize; the scalar per-row
  // dispatch penalty dominates: stay vectorized.
  const FusedChoice narrow = chooser.ChooseFusedChain(
      *plan, chains[0], estimates_for(100000, 8.0));
  EXPECT_FALSE(narrow.fuse) << narrow.ToString();
  EXPECT_GE(narrow.fused_cost_ns, narrow.vectorized_cost_ns);
}

TEST(FusedEngineTest, ConcurrentFusedAndVectorizedSessionsShareOnePool) {
  // Mixed-mode sessions on one shared Engine: fused chains must not
  // corrupt scheduler state visible to concurrently running vectorized
  // sessions (and vice versa). Run under TSan in CI.
  constexpr int kQueries = 8;
  std::vector<std::unique_ptr<StorageManager>> storages;
  std::vector<std::unique_ptr<RandomJoinQuery>> queries;
  std::vector<std::string> expected(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    storages.push_back(std::make_unique<StorageManager>());
    queries.push_back(std::make_unique<RandomJoinQuery>(
        storages.back().get(), static_cast<uint64_t>(100 + i)));
    std::unique_ptr<QueryPlan> plan =
        queries.back()->MakePlan(storages.back().get(), 0);
    QueryExecutor::Execute(plan.get(),
                           ModeConfig(PipelineMode::kVectorized));
    expected[static_cast<size_t>(i)] = CanonicalRows(*plan->result_table());
  }

  EngineConfig engine_config;
  engine_config.num_workers = 4;
  Engine engine(engine_config);
  std::vector<std::string> actual(kQueries);
  std::vector<std::thread> threads;
  threads.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    threads.emplace_back([&, i] {
      std::unique_ptr<QueryPlan> plan = queries[static_cast<size_t>(i)]
          ->MakePlan(storages[static_cast<size_t>(i)].get(), 0);
      const PipelineMode mode =
          i % 2 == 0 ? PipelineMode::kFused : PipelineMode::kVectorized;
      engine.Execute(plan.get(), ModeConfig(mode));
      actual[static_cast<size_t>(i)] = CanonicalRows(*plan->result_table());
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(actual[static_cast<size_t>(i)], expected[static_cast<size_t>(i)])
        << queries[static_cast<size_t>(i)]->Description();
  }
}

}  // namespace
}  // namespace uot

#include <gtest/gtest.h>

#include "exec/query_executor.h"
#include "model/cost_model.h"
#include "model/memory_model.h"
#include "model/uot_chooser.h"
#include "operators/aggregate_operator.h"
#include "operators/select_operator.h"
#include "test_util.h"

namespace uot {
namespace {

constexpr double kKB = 1024.0;
constexpr double kMB = 1024.0 * 1024.0;

TEST(CostModelTest, ComponentCostsScaleWithUotSize) {
  CostModel m;
  EXPECT_DOUBLE_EQ(m.W_mem(2 * kMB), 2.0 * m.W_mem(kMB));
  EXPECT_GT(m.R_L3(2 * kMB), m.R_L3(kMB));
  // Below the prefetch ramp, a disrupted read pays the full slow rate.
  EXPECT_DOUBLE_EQ(m.R_L3(128 * kKB), 128 * kKB / m.params().read_bw);
  // Amortized (prefetched) sequential reads are much cheaper: AR << R
  // (at block sizes within the prefetch ramp).
  EXPECT_LT(m.AR_L3(128 * kKB), 0.5 * m.R_L3(128 * kKB));
  // For huge UoTs the prefetcher recovers: R_L3 approaches AR_L3
  // (Section V-A's high-UoT argument).
  EXPECT_LT(m.R_L3(64 * kMB), 1.2 * m.AR_L3(64 * kMB));
}

TEST(CostModelTest, P1PrimeMatchesPaperFormula) {
  CostModel m;  // L3 = 25 MB
  // p1' = min(1, 2BT/|L3|)
  EXPECT_NEAR(m.P1Prime(128 * kKB, 1), 2.0 * 128 * kKB / (25 * kMB), 1e-12);
  EXPECT_NEAR(m.P1Prime(2 * kMB, 20), 1.0, 1e-12);  // saturates at 1
  EXPECT_LT(m.P1Prime(128 * kKB, 1), m.P1Prime(128 * kKB, 20));
  // The paper's threshold: sizes above |L3| / (2T) push p1' to 1.
  const double threshold = 25 * kMB / (2.0 * 20);
  EXPECT_GE(m.P1Prime(threshold * 1.01, 20), 1.0 - 1e-9);
}

TEST(CostModelTest, P2DecreasesWithUotSize) {
  CostModel m;
  EXPECT_NEAR(m.P2(64 * kKB), 1.0, 1e-12);  // small UoT: p2 ~ 1
  EXPECT_GT(m.P2(512 * kKB), m.P2(2 * kMB));
  EXPECT_LT(m.P2(8 * kMB), 0.05);
}

TEST(CostModelTest, ExtraCostsLinearInUotCount) {
  CostModel m;
  const double b = 512 * kKB;
  EXPECT_DOUBLE_EQ(m.NonPipeliningExtraCost(200, b),
                   2.0 * m.NonPipeliningExtraCost(100, b));
  EXPECT_DOUBLE_EQ(m.PipeliningExtraCost(200, b, 10),
                   2.0 * m.PipeliningExtraCost(100, b, 10));
}

TEST(CostModelTest, RatioNearOneAtBothExtremes) {
  // The paper's Section V-A conclusion: at both ends of the UoT spectrum
  // the two strategies' extra costs are comparable (ratio close to 1).
  CostModel m;
  for (int threads : {10, 20}) {
    const double low = m.CostRatio(128 * kKB, threads);
    const double high = m.CostRatio(16 * kMB, threads);
    EXPECT_GT(low, 0.5) << "T=" << threads;
    EXPECT_LT(low, 2.0) << "T=" << threads;
    EXPECT_GT(high, 0.5) << "T=" << threads;
    EXPECT_LT(high, 2.0) << "T=" << threads;
  }
}

TEST(CostModelTest, LowUotSlightAdvantageAtSmallBlocks) {
  // Section V-A(b): at low UoT values the pipelining strategy has a slight
  // advantage, i.e. the non-pipelining/pipelining ratio >= ~1.
  CostModel m;
  EXPECT_GE(m.CostRatio(128 * kKB, 20), 1.0);
}

TEST(CostModelTest, GapShrinksAsUotGrows) {
  // |ratio - 1| at 2 MB should not exceed the value at 128 KB (the paper's
  // "larger block size bridges the gap").
  CostModel m;
  const double small_gap = std::abs(m.CostRatio(128 * kKB, 20) - 1.0);
  const double large_gap = std::abs(m.CostRatio(2 * kMB, 20) - 1.0);
  const double huge_gap = std::abs(m.CostRatio(16 * kMB, 20) - 1.0);
  EXPECT_LE(large_gap, small_gap + 0.08);
  EXPECT_LE(huge_gap, 0.05);
}

TEST(CostModelTest, DiskModelSecondsVsMicroseconds) {
  // Section V-C: for a persistent store, the non-pipelining extra cost for
  // thousands of UoTs is orders of magnitude above the pipelining cost.
  CostModel m;
  const double high = m.StoreExtraCostHighUot(1000, 2 * kMB);
  const double low = m.StoreExtraCostLowUot(1000);
  EXPECT_GT(high, 1e9);          // > 1 second (in ns)
  EXPECT_LT(low, 1e7);           // < 10 ms
  EXPECT_GT(high / low, 1000.0);  // orders of magnitude apart
}

TEST(CostModelTest, DescribeMentionsParameters) {
  CostModel m;
  const std::string d = m.Describe();
  EXPECT_NE(d.find("L3"), std::string::npos);
  EXPECT_NE(d.find("p1"), std::string::npos);
}

TEST(MemoryModelTest, JoinTableBytesPicksTheSmallerLayout) {
  // Hash: NextPow2(1000 / 0.5) = 2048 buckets of 16 bytes plus a tag.
  const MemoryModel::JoinTableFootprint hash =
      MemoryModel::JoinTableBytes(1000, 0, 8, 16, 0.5);
  EXPECT_FALSE(hash.dense);
  EXPECT_EQ(hash.slots, 2048u);
  EXPECT_EQ(hash.bytes, 2048u * 17);
  // Dense over 1000 key values: 1000 heads + 1000 * (4-byte link + 8).
  const MemoryModel::JoinTableFootprint dense =
      MemoryModel::JoinTableBytes(1000, 1000, 8, 16, 0.5);
  EXPECT_TRUE(dense.dense);
  EXPECT_EQ(dense.slots, 1000u);
  EXPECT_EQ(dense.bytes, 1000u * 4 + 1000u * 12);
  // A sparse range costs more than the hash layout: keep the hash layout.
  EXPECT_FALSE(MemoryModel::JoinTableBytes(1000, 1000000, 8, 16, 0.5).dense);
  // Key spans past 32 bits never go dense.
  EXPECT_FALSE(
      MemoryModel::JoinTableBytes(1ull << 33, 1ull << 33, 0, 8, 1.0).dense);
}

TEST(MemoryModelTest, HashTableBytesFormula) {
  // (M/w) * (c/f): 1 GB of 100-byte tuples, 32-byte buckets, f = 0.5
  // -> 10M entries * 64 bytes.
  const double bytes =
      MemoryModel::HashTableBytes(1e9, 100.0, 32.0, 0.5);
  EXPECT_DOUBLE_EQ(bytes, (1e9 / 100.0) * (32.0 / 0.5));
}

TEST(MemoryModelTest, SelectivityAndProjectivity) {
  EXPECT_DOUBLE_EQ(MemoryModel::Selectivity(539, 1000), 0.539);
  EXPECT_DOUBLE_EQ(MemoryModel::Projectivity(19.0, 145.0), 19.0 / 145.0);
  EXPECT_NEAR(MemoryModel::TotalReduction(0.539, 0.131), 0.0706, 1e-4);
}

TEST(MemoryModelTest, CascadeFootprintsMatchTableII) {
  // Table II: low UoT holds hash tables 2..n; high UoT holds sigma(R).
  const std::vector<double> hts = {100.0, 50.0, 25.0};
  const auto fp = MemoryModel::LeafJoinCascade(hts, 500.0);
  EXPECT_DOUBLE_EQ(fp.low_uot_overhead_bytes, 75.0);
  EXPECT_DOUBLE_EQ(fp.high_uot_overhead_bytes, 500.0);
}

TEST(MemoryModelTest, SingleJoinCascadeHasNoLowUotOverhead) {
  const auto fp = MemoryModel::LeafJoinCascade({100.0}, 300.0);
  EXPECT_DOUBLE_EQ(fp.low_uot_overhead_bytes, 0.0);
  EXPECT_DOUBLE_EQ(fp.high_uot_overhead_bytes, 300.0);
}

TEST(MemoryModelTest, EitherStrategyCanWin) {
  // SSB-style: small dimension hash tables -> low UoT cheaper.
  const auto ssb = MemoryModel::LeafJoinCascade({1e6, 1e6, 1e6}, 1e9);
  EXPECT_LT(ssb.low_uot_overhead_bytes, ssb.high_uot_overhead_bytes);
  // Q07-style: a huge orders hash table -> high UoT cheaper when pruning
  // (LIP) shrinks sigma(R).
  const auto q7 = MemoryModel::LeafJoinCascade({1e6, 2.4e9, 1e6}, 224e6);
  EXPECT_GT(q7.low_uot_overhead_bytes, q7.high_uot_overhead_bytes);
}

TEST(UotChooserTest, UnconstrainedChoiceComesFromTheCostModel) {
  CostModelUotChooser chooser;  // no budget
  EdgeEstimate estimate{/*rows=*/1u << 20, /*row_bytes=*/64.0};
  const UotChoice choice = chooser.ChooseEdge(estimate, 1u << 16);
  EXPECT_STREQ(choice.reason, "cost-model");
  EXPECT_GT(choice.uot_bytes, 0.0);
  EXPECT_GE(choice.chosen_cost_ns, 0.0);
  // Section VI: materializing this edge holds the whole sigma live.
  EXPECT_DOUBLE_EQ(choice.materialized_bytes, estimate.bytes());
  EXPECT_NE(choice.ToString().find("cost-model"), std::string::npos);
}

TEST(UotChooserTest, BudgetCapForcesSmallGranule) {
  CostModelUotChooser::Options options;
  options.memory_budget_bytes = 4096;  // cap = 1024 B per edge granule
  CostModelUotChooser chooser(options);
  // A 64 MiB edge in 64 KiB blocks: whole-table and every multi-block
  // granule breach the cap, so the chooser must fall back to 1 block.
  EdgeEstimate estimate{/*rows=*/1u << 20, /*row_bytes=*/64.0};
  const UotChoice choice = chooser.ChooseEdge(estimate, 1u << 16);
  EXPECT_FALSE(choice.uot.IsWholeTable());
  EXPECT_EQ(choice.uot.blocks_per_transfer(), 1u);
  EXPECT_STREQ(choice.reason, "memory-cap");
}

TEST(UotChooserTest, GenerousBudgetDoesNotCap) {
  CostModelUotChooser::Options options;
  options.memory_budget_bytes = int64_t{1} << 40;
  CostModelUotChooser chooser(options);
  EdgeEstimate estimate{/*rows=*/1u << 20, /*row_bytes=*/64.0};
  const UotChoice capped_free = chooser.ChooseEdge(estimate, 1u << 16);
  const UotChoice unbounded =
      CostModelUotChooser().ChooseEdge(estimate, 1u << 16);
  EXPECT_STREQ(capped_free.reason, "cost-model");
  EXPECT_EQ(capped_free.uot.blocks_per_transfer(),
            unbounded.uot.blocks_per_transfer());
}

TEST(UotChooserTest, EmptyEstimateStaysValid) {
  CostModelUotChooser chooser;
  const UotChoice choice = chooser.ChooseEdge(EdgeEstimate{}, 4096);
  EXPECT_NE(choice.uot.blocks_per_transfer(), 0u);
  EXPECT_DOUBLE_EQ(choice.materialized_bytes, 0.0);
}

/// select -> agg over synthetic data (one streaming edge), for the
/// plan-level chooser APIs.
std::unique_ptr<QueryPlan> MakeChooserPlan(StorageManager* storage,
                                           const Table& input) {
  auto plan = std::make_unique<QueryPlan>(storage);
  auto proj = Projection::Identity(input.schema(), {0, 1});
  Schema sel_schema = proj->output_schema();
  Table* sel_out = plan->CreateTempTable("sel.out", sel_schema,
                                         Layout::kRowStore, 1024);
  InsertDestination* sel_dest = plan->CreateDestination(sel_out);
  auto select = std::make_unique<SelectOperator>(
      "select", std::make_unique<TruePredicate>(), std::move(proj),
      sel_dest);
  select->AttachBaseTable(&input);
  const int select_op = plan->AddOperator(std::move(select));
  plan->RegisterOutput(select_op, sel_dest);

  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
  Schema agg_schema = AggregateOperator::OutputSchema(sel_schema, {0}, aggs);
  Table* agg_out = plan->CreateTempTable("agg.out", agg_schema,
                                         Layout::kRowStore, 1024);
  InsertDestination* agg_dest = plan->CreateDestination(agg_out);
  auto agg = std::make_unique<AggregateOperator>(
      "agg", sel_schema, std::vector<int>{0}, std::move(aggs), nullptr,
      agg_dest, &plan->storage()->tracker());
  const int agg_op = plan->AddOperator(std::move(agg));
  plan->RegisterOutput(agg_op, agg_dest);
  plan->AddStreamingEdge(select_op, agg_op);
  plan->SetResultTable(agg_out);
  return plan;
}

TEST(UotChooserTest, ProfiledPlanRoundTripAnnotates) {
  StorageManager storage;
  auto input = testing::MakeKvTable(&storage, "in", 2000, 20,
                                    Layout::kRowStore, 1024);

  // Profile run: execute once, then measure the edge's actual output. The
  // intermediates must survive the run to be measurable.
  auto profiled = MakeChooserPlan(&storage, *input);
  ExecConfig config;
  config.num_workers = 2;
  config.drop_consumed_blocks = false;
  QueryExecutor::Execute(profiled.get(), config);
  const std::vector<EdgeEstimate> estimates =
      CostModelUotChooser::EstimatesFromExecutedPlan(*profiled);
  ASSERT_EQ(estimates.size(), 1u);
  EXPECT_EQ(estimates[0].rows, 2000u);
  EXPECT_GT(estimates[0].row_bytes, 0.0);

  // Bind-time choice applied as a plan annotation on a fresh plan.
  CostModelUotChooser chooser;
  auto fresh = MakeChooserPlan(&storage, *input);
  const std::vector<UotChoice> choices = chooser.ChoosePlan(*fresh, estimates);
  ASSERT_EQ(choices.size(), 1u);
  CostModelUotChooser::AnnotatePlan(fresh.get(), choices);
  ASSERT_TRUE(fresh->edge_uot(0).has_value());
  EXPECT_EQ(fresh->edge_uot(0)->blocks_per_transfer(),
            choices[0].uot.blocks_per_transfer());

  // The annotated plan still executes and the annotation drove the edge.
  ExecutionStats stats = QueryExecutor::Execute(fresh.get(), config);
  ASSERT_EQ(stats.edges.size(), 1u);
  if (choices[0].uot.IsWholeTable()) {
    EXPECT_EQ(stats.edges[0].transfers, 1u);
  } else {
    EXPECT_GE(stats.edges[0].transfers, 1u);
  }
}

}  // namespace
}  // namespace uot

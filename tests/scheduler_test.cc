#include <gtest/gtest.h>

#include <algorithm>

#include "exec/adaptive_uot_policy.h"
#include "exec/query_executor.h"
#include "obs/query_profile.h"
#include "obs/trace_session.h"
#include "operators/aggregate_operator.h"
#include "operators/build_hash_operator.h"
#include "operators/probe_hash_operator.h"
#include "operators/select_operator.h"
#include "operators/sort_merge_join_operator.h"
#include "test_util.h"

namespace uot {
namespace {

using testing::MakeKvTable;
using testing::TransfersMatchUot;

/// Builds the paper's canonical select -> probe plan over synthetic data:
///   sel(probe_table: v >= threshold) -> probe(build(build_table))
/// Result: (k, v, payload_v).
struct SelectProbePlan {
  std::unique_ptr<QueryPlan> plan;
  int select_op = -1;
  int build_op = -1;
  int probe_op = -1;
};

SelectProbePlan MakeSelectProbePlan(StorageManager* storage,
                                    const Table& probe_table,
                                    const Table& build_table,
                                    double threshold,
                                    size_t temp_block_bytes) {
  SelectProbePlan out;
  out.plan = std::make_unique<QueryPlan>(storage);
  QueryPlan* plan = out.plan.get();

  auto build = std::make_unique<BuildHashOperator>(
      "build", std::vector<int>{0}, std::vector<int>{1}, 0.75,
      &storage->tracker());
  BuildHashOperator* build_raw = build.get();
  build_raw->InitHashTable(build_table.schema());
  build_raw->AttachBaseTable(&build_table);
  out.build_op = plan->AddOperator(std::move(build));

  auto proj = Projection::Identity(probe_table.schema(), {0, 1});
  Schema sel_schema = proj->output_schema();
  Table* sel_out = plan->CreateTempTable("sel.out", sel_schema,
                                         Layout::kRowStore,
                                         temp_block_bytes);
  InsertDestination* sel_dest = plan->CreateDestination(sel_out);
  auto select = std::make_unique<SelectOperator>(
      "select",
      Cmp(CompareOp::kGe, Col(1, Type::Double()), LitDouble(threshold)),
      std::move(proj), sel_dest);
  select->AttachBaseTable(&probe_table);
  out.select_op = plan->AddOperator(std::move(select));
  plan->RegisterOutput(out.select_op, sel_dest);

  Schema probe_schema = ProbeHashOperator::OutputSchema(
      sel_schema, {0, 1}, build_table.schema(), {1}, JoinKind::kInner);
  Table* probe_out = plan->CreateTempTable("probe.out", probe_schema,
                                           Layout::kRowStore,
                                           temp_block_bytes);
  InsertDestination* probe_dest = plan->CreateDestination(probe_out);
  auto probe = std::make_unique<ProbeHashOperator>(
      "probe", build_raw, std::vector<int>{0}, std::vector<int>{0, 1},
      JoinKind::kInner, std::vector<ResidualCondition>{}, probe_dest);
  out.probe_op = plan->AddOperator(std::move(probe));
  plan->RegisterOutput(out.probe_op, probe_dest);

  plan->AddStreamingEdge(out.select_op, out.probe_op);
  plan->AddBlockingEdge(out.build_op, out.probe_op);
  plan->SetResultTable(probe_out);
  return out;
}

struct SchedulerParam {
  uint64_t uot_blocks;  // 0 = whole table
  int workers;
  size_t block_bytes;
};

class SchedulerParamTest : public ::testing::TestWithParam<SchedulerParam> {};

TEST_P(SchedulerParamTest, SelectProbeResultInvariantAcrossConfigs) {
  const SchedulerParam p = GetParam();
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 5000, 50,
                                 Layout::kColumnStore, 4096);
  auto build_table = MakeKvTable(&storage, "build", 50, 50,
                                 Layout::kColumnStore, 4096);

  auto reference = MakeSelectProbePlan(&storage, *probe_table, *build_table,
                                       1000.0, 1 << 20);
  ExecConfig ref_config;
  ref_config.num_workers = 1;
  ref_config.uot = UotPolicy::HighUot();
  QueryExecutor::Execute(reference.plan.get(), ref_config);
  const std::string expected =
      CanonicalRows(*reference.plan->result_table());
  EXPECT_FALSE(expected.empty());

  auto tested = MakeSelectProbePlan(&storage, *probe_table, *build_table,
                                    1000.0, p.block_bytes);
  ExecConfig config;
  config.num_workers = p.workers;
  config.uot = p.uot_blocks == 0 ? UotPolicy::HighUot()
                                 : UotPolicy::LowUot(p.uot_blocks);
  ExecutionStats stats = QueryExecutor::Execute(tested.plan.get(), config);
  EXPECT_EQ(CanonicalRows(*tested.plan->result_table()), expected);
  EXPECT_GT(stats.records.size(), 0u);
  EXPECT_GT(stats.QueryMillis(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SchedulerParamTest,
    ::testing::Values(SchedulerParam{1, 1, 512},
                      SchedulerParam{1, 4, 512},
                      SchedulerParam{2, 2, 1024},
                      SchedulerParam{4, 4, 4096},
                      SchedulerParam{0, 1, 512},
                      SchedulerParam{0, 4, 4096},
                      SchedulerParam{1, 8, 16384},
                      SchedulerParam{0, 8, 16384}),
    [](const auto& info) {
      return "uot" + std::to_string(info.param.uot_blocks) + "_w" +
             std::to_string(info.param.workers) + "_b" +
             std::to_string(info.param.block_bytes);
    });

TEST(SchedulerTest, ProbeNeverStartsBeforeBuildFinishes) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 2000, 20,
                                 Layout::kRowStore, 2048);
  auto build_table = MakeKvTable(&storage, "build", 500, 20,
                                 Layout::kRowStore, 2048);
  auto sp = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                1024);
  ExecConfig config;
  config.num_workers = 4;
  config.uot = UotPolicy::LowUot(1);
  ExecutionStats stats = QueryExecutor::Execute(sp.plan.get(), config);

  int64_t build_last_end = 0;
  int64_t probe_first_start = INT64_MAX;
  for (const WorkOrderRecord& r : stats.records) {
    if (r.op == sp.build_op) build_last_end = std::max(build_last_end, r.end_ns);
    if (r.op == sp.probe_op) {
      probe_first_start = std::min(probe_first_start, r.start_ns);
    }
  }
  ASSERT_GT(build_last_end, 0);
  ASSERT_LT(probe_first_start, INT64_MAX);
  EXPECT_GE(probe_first_start, build_last_end);
}

TEST(SchedulerTest, LowUotTransfersPerBlockHighUotOnce) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 4000, 10,
                                 Layout::kRowStore, 2048);
  auto build_table = MakeKvTable(&storage, "build", 10, 10,
                                 Layout::kRowStore, 2048);

  auto low = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                 1024);
  ExecConfig low_config;
  low_config.num_workers = 2;
  low_config.uot = UotPolicy::LowUot(1);
  ExecutionStats low_stats = QueryExecutor::Execute(low.plan.get(),
                                                    low_config);

  auto high = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                  1024);
  ExecConfig high_config;
  high_config.num_workers = 2;
  high_config.uot = UotPolicy::HighUot();
  ExecutionStats high_stats = QueryExecutor::Execute(high.plan.get(),
                                                     high_config);

  ASSERT_EQ(low_stats.edges.size(), 1u);
  ASSERT_EQ(high_stats.edges.size(), 1u);
  // With the whole-table UoT there is exactly one transfer; with a
  // one-block UoT there are roughly as many transfers as select outputs.
  EXPECT_EQ(high_stats.edges[0].transfers, 1u);
  EXPECT_GT(low_stats.edges[0].transfers, 10u);
  // Both produce the same number of probe work orders in total.
  EXPECT_EQ(low_stats.operators[static_cast<size_t>(low.probe_op)]
                .num_work_orders,
            high_stats.operators[static_cast<size_t>(high.probe_op)]
                .num_work_orders);
}

TEST(SchedulerTest, UotGroupsBlocksPerTransfer) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 4000, 10,
                                 Layout::kRowStore, 2048);
  auto build_table = MakeKvTable(&storage, "build", 10, 10,
                                 Layout::kRowStore, 2048);
  auto one = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                 1024);
  ExecConfig config;
  config.num_workers = 1;
  config.uot = UotPolicy::LowUot(1);
  const uint64_t transfers_k1 =
      QueryExecutor::Execute(one.plan.get(), config).edges[0].transfers;

  auto four = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                  1024);
  config.uot = UotPolicy::LowUot(4);
  const uint64_t transfers_k4 =
      QueryExecutor::Execute(four.plan.get(), config).edges[0].transfers;
  EXPECT_LT(transfers_k4, transfers_k1);
  EXPECT_GE(transfers_k4, transfers_k1 / 4);
}

TEST(SchedulerTest, MemoryBudgetStillCompletesAndBoundsPeak) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 20000, 10,
                                 Layout::kRowStore, 2048);
  auto build_table = MakeKvTable(&storage, "build", 10, 10,
                                 Layout::kRowStore, 2048);

  ExecConfig config;
  config.num_workers = 4;
  config.uot = UotPolicy::LowUot(1);

  std::string expected;
  int64_t free_peak = 0;
  size_t free_records = 0;
  {
    auto unbounded = MakeSelectProbePlan(&storage, *probe_table,
                                         *build_table, 0.0, 2048);
    ExecutionStats free_stats =
        QueryExecutor::Execute(unbounded.plan.get(), config);
    expected = CanonicalRows(*unbounded.plan->result_table());
    free_peak = free_stats.PeakTemporaryBytes();
    free_records = free_stats.records.size();
  }  // plan destruction drops its temp tables before the bounded run

  auto bounded = MakeSelectProbePlan(&storage, *probe_table, *build_table,
                                     0.0, 2048);
  // Budget barely above the base tables: producer admission throttles.
  config.memory_budget_bytes = storage.tracker().TotalCurrent() + 16 * 1024;
  ExecutionStats bounded_stats =
      QueryExecutor::Execute(bounded.plan.get(), config);

  EXPECT_EQ(CanonicalRows(*bounded.plan->result_table()), expected);
  EXPECT_LE(bounded_stats.PeakTemporaryBytes(), free_peak + 64 * 1024);
  EXPECT_EQ(bounded_stats.records.size(), free_records);
}

TEST(SchedulerTest, StatsAggregatesAreConsistent) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 3000, 10,
                                 Layout::kRowStore, 2048);
  auto build_table = MakeKvTable(&storage, "build", 100, 10,
                                 Layout::kRowStore, 2048);
  auto sp = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                2048);
  ExecConfig config;
  config.num_workers = 4;
  ExecutionStats stats = QueryExecutor::Execute(sp.plan.get(), config);

  uint64_t total_records = 0;
  for (const OperatorStats& os : stats.operators) {
    total_records += os.num_work_orders;
    if (os.num_work_orders > 0) {
      EXPECT_GE(os.total_task_ns, 0);
      EXPECT_GE(os.last_end_ns, os.first_start_ns);
      EXPECT_GT(os.avg_task_ms(), 0.0);
    }
  }
  EXPECT_EQ(total_records, stats.records.size());
  for (int op = 0; op < 3; ++op) {
    const double dop = stats.AverageDop(op);
    EXPECT_GE(dop, 0.0);
    EXPECT_LE(dop, 4.5);
  }
  EXPECT_GT(stats.PeakTemporaryBytes(), 0);
  EXPECT_GT(stats.PeakHashTableBytes(), 0);
  EXPECT_FALSE(obs::QueryProfile::FromRun(nullptr, stats).ToString().empty());
}

TEST(AverageDopTest, ZeroWorkOrdersIsZero) {
  ExecutionStats stats;
  // No records at all: DOP of any operator is 0, not NaN.
  EXPECT_EQ(stats.AverageDop(0), 0.0);
  // Records exist, but none for operator 5.
  stats.records.push_back(WorkOrderRecord{0, 0, 100, 200});
  EXPECT_EQ(stats.AverageDop(5), 0.0);
}

TEST(AverageDopTest, ZeroSpanIsZero) {
  ExecutionStats stats;
  // All records collapse to a single instant (possible on coarse clocks):
  // there is no interval to integrate over, so the DOP is defined as 0
  // rather than garbage derived from the record count.
  stats.records.push_back(WorkOrderRecord{0, 0, 100, 100});
  stats.records.push_back(WorkOrderRecord{0, 1, 100, 100});
  EXPECT_EQ(stats.AverageDop(0), 0.0);
}

TEST(AverageDopTest, SingleWorkerSequentialRunsAverageToOne) {
  ExecutionStats stats;
  // Back-to-back, non-overlapping records: exactly one running at every
  // point of the span, so the average DOP is 1.
  stats.records.push_back(WorkOrderRecord{0, 0, 0, 100});
  stats.records.push_back(WorkOrderRecord{0, 0, 100, 200});
  stats.records.push_back(WorkOrderRecord{0, 0, 200, 300});
  EXPECT_DOUBLE_EQ(stats.AverageDop(0), 1.0);
}

TEST(AverageDopTest, FullyOverlappingRecordsAverageToCount) {
  ExecutionStats stats;
  // Two records over the identical interval: DOP 2 throughout.
  stats.records.push_back(WorkOrderRecord{0, 0, 0, 100});
  stats.records.push_back(WorkOrderRecord{0, 1, 0, 100});
  EXPECT_DOUBLE_EQ(stats.AverageDop(0), 2.0);
  // A half-overlapping third record: [0,50) has DOP 2, [50,100) DOP 3,
  // [100,150) DOP 1 -> (2*50 + 3*50 + 1*50) / 150.
  stats.records.push_back(WorkOrderRecord{0, 2, 50, 150});
  EXPECT_DOUBLE_EQ(stats.AverageDop(0),
                   (2.0 * 50.0 + 3.0 * 50.0 + 1.0 * 50.0) / 150.0);
}

TEST(SchedulerTest, ToStringIncludesMemoryAndEdgeSummaries) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 2000, 10,
                                 Layout::kRowStore, 2048);
  auto build_table = MakeKvTable(&storage, "build", 50, 10,
                                 Layout::kRowStore, 2048);
  auto sp = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                2048);
  ExecConfig config;
  config.num_workers = 2;
  ExecutionStats stats = QueryExecutor::Execute(sp.plan.get(), config);
  const std::string rendered =
      obs::QueryProfile::FromRun(nullptr, stats).ToString();
  EXPECT_NE(rendered.find("memory peaks:"), std::string::npos);
  EXPECT_NE(rendered.find("hash_table="), std::string::npos);
  EXPECT_NE(rendered.find("edge[0] op1 -> op2: uot="), std::string::npos);
  EXPECT_NE(rendered.find("transfers="), std::string::npos);
}

TEST(SchedulerTest, EmptyProducerStillCompletesConsumers) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 100, 10,
                                 Layout::kRowStore, 1024);
  auto build_table = MakeKvTable(&storage, "build", 10, 10,
                                 Layout::kRowStore, 1024);
  // Threshold filters out every probe row.
  auto sp = MakeSelectProbePlan(&storage, *probe_table, *build_table, 1e12,
                                1024);
  ExecConfig config;
  config.num_workers = 2;
  config.uot = UotPolicy::LowUot(1);
  ExecutionStats stats = QueryExecutor::Execute(sp.plan.get(), config);
  EXPECT_EQ(sp.plan->result_table()->NumRows(), 0u);
  EXPECT_EQ(stats.operators[static_cast<size_t>(sp.probe_op)].num_work_orders,
            0u);
}

TEST(SchedulerTest, DiamondPlanFeedsTwoConsumers) {
  // One select output streams to two aggregate consumers (TPC-H Q14 shape).
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 2000, 10, Layout::kRowStore, 2048);
  QueryPlan plan(&storage);

  auto proj = Projection::Identity(input->schema(), {0, 1});
  Schema sel_schema = proj->output_schema();
  Table* sel_out =
      plan.CreateTempTable("sel.out", sel_schema, Layout::kRowStore, 1024);
  InsertDestination* sel_dest = plan.CreateDestination(sel_out);
  auto select = std::make_unique<SelectOperator>(
      "select", std::make_unique<TruePredicate>(), std::move(proj), sel_dest);
  select->AttachBaseTable(input.get());
  const int select_op = plan.AddOperator(std::move(select));
  plan.RegisterOutput(select_op, sel_dest);

  std::vector<Table*> agg_outs;
  for (int i = 0; i < 2; ++i) {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
    Schema agg_schema =
        AggregateOperator::OutputSchema(sel_schema, {}, aggs);
    Table* agg_out = plan.CreateTempTable("agg" + std::to_string(i),
                                          agg_schema, Layout::kRowStore,
                                          1024);
    InsertDestination* agg_dest = plan.CreateDestination(agg_out);
    auto agg = std::make_unique<AggregateOperator>(
        "agg" + std::to_string(i), sel_schema, std::vector<int>{},
        std::move(aggs), nullptr, agg_dest, &plan.storage()->tracker());
    const int agg_op = plan.AddOperator(std::move(agg));
    plan.RegisterOutput(agg_op, agg_dest);
    plan.AddStreamingEdge(select_op, agg_op);
    agg_outs.push_back(agg_out);
  }
  plan.SetResultTable(agg_outs[0]);

  ExecConfig config;
  config.num_workers = 3;
  config.uot = UotPolicy::LowUot(1);
  QueryExecutor::Execute(&plan, config);
  ASSERT_EQ(agg_outs[0]->NumRows(), 1u);
  ASSERT_EQ(agg_outs[1]->NumRows(), 1u);
  const double expected = 2000.0 * 1999.0 / 2.0;
  EXPECT_DOUBLE_EQ(agg_outs[0]->GetValue(0, 0).AsDouble(), expected);
  EXPECT_DOUBLE_EQ(agg_outs[1]->GetValue(0, 0).AsDouble(), expected);
}

TEST(SchedulerTest, DropConsumedBlocksCoversEveryStreamingInput) {
  // Regression: droppable producer tables were tracked one-per-consumer, so
  // a consumer with two streaming inputs (sort-merge join) dropped only the
  // blocks of whichever edge was registered last — the other intermediate
  // leaked for the rest of the query.
  StorageManager storage;
  auto left_in = MakeKvTable(&storage, "left", 300, 10,
                             Layout::kRowStore, 1024);
  auto right_in = MakeKvTable(&storage, "right", 300, 10,
                              Layout::kRowStore, 1024);
  QueryPlan plan(&storage);

  std::vector<Table*> sel_outs;
  std::vector<int> sel_ops;
  const Table* inputs[2] = {left_in.get(), right_in.get()};
  for (int side = 0; side < 2; ++side) {
    auto proj = Projection::Identity(inputs[side]->schema(), {0, 1});
    Schema sel_schema = proj->output_schema();
    Table* sel_out = plan.CreateTempTable("sel" + std::to_string(side),
                                          sel_schema, Layout::kRowStore,
                                          1024);
    InsertDestination* sel_dest = plan.CreateDestination(sel_out);
    auto select = std::make_unique<SelectOperator>(
        "select" + std::to_string(side), std::make_unique<TruePredicate>(),
        std::move(proj), sel_dest);
    select->AttachBaseTable(inputs[side]);
    const int op = plan.AddOperator(std::move(select));
    plan.RegisterOutput(op, sel_dest);
    sel_outs.push_back(sel_out);
    sel_ops.push_back(op);
  }

  const Schema& left_schema = sel_outs[0]->schema();
  const Schema& right_schema = sel_outs[1]->schema();
  Schema join_schema = SortMergeJoinOperator::OutputSchema(
      left_schema, {0, 1}, right_schema, {1});
  Table* join_out = plan.CreateTempTable("join.out", join_schema,
                                         Layout::kRowStore, 4096);
  InsertDestination* join_dest = plan.CreateDestination(join_out);
  auto join = std::make_unique<SortMergeJoinOperator>(
      "smj", left_schema, right_schema, std::vector<int>{0},
      std::vector<int>{0}, std::vector<int>{0, 1}, std::vector<int>{1},
      join_dest);
  const int join_op = plan.AddOperator(std::move(join));
  plan.RegisterOutput(join_op, join_dest);
  plan.AddStreamingEdge(sel_ops[0], join_op, /*consumer_input=*/0);
  plan.AddStreamingEdge(sel_ops[1], join_op, /*consumer_input=*/1);
  plan.SetResultTable(join_out);

  ExecConfig config;
  config.num_workers = 2;
  config.uot = UotPolicy::LowUot(1);
  ASSERT_TRUE(config.drop_consumed_blocks);
  QueryExecutor::Execute(&plan, config);

  // 30 matches per key and 10 keys per side.
  EXPECT_EQ(join_out->NumRows(), 10u * 30u * 30u);
  // Both select intermediates must have been dropped, not just the one on
  // the last-registered edge.
  EXPECT_TRUE(sel_outs[0]->blocks().empty())
      << "left select intermediate leaked";
  EXPECT_TRUE(sel_outs[1]->blocks().empty())
      << "right select intermediate leaked";
}

TEST(SchedulerTest, BudgetDeferralsCountOnlyBudgetForcedDeferrals) {
  // Regression: with any memory budget set, every producer work order used
  // to bump scheduler.budget.deferrals (and emit kBudgetDefer) even when
  // the budget never constrained anything.
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 8000, 10,
                                 Layout::kRowStore, 1024);
  auto build_table = MakeKvTable(&storage, "build", 10, 10,
                                 Layout::kRowStore, 1024);

  ExecConfig config;
  config.num_workers = 2;
  config.uot = UotPolicy::LowUot(1);

  std::string expected;
  {
    auto free_run = MakeSelectProbePlan(&storage, *probe_table, *build_table,
                                        0.0, 1024);
    QueryExecutor::Execute(free_run.plan.get(), config);
    expected = CanonicalRows(*free_run.plan->result_table());
  }

  {
    // A budget far above anything the query allocates: zero deferrals.
    auto sp = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                  1024);
    config.memory_budget_bytes = int64_t{1} << 40;
    const ExecutionStats stats = QueryExecutor::Execute(sp.plan.get(), config);
    EXPECT_EQ(stats.budget_deferrals, 0u);
    EXPECT_EQ(CanonicalRows(*sp.plan->result_table()), expected);
  }

  {
    // A budget below even the base tables: every producer admission is a
    // genuine budget deferral, and each one is traced exactly once.
    obs::TraceSession trace;
    auto sp = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                  1024);
    config.memory_budget_bytes = 1;
    config.trace = &trace;
    const ExecutionStats stats = QueryExecutor::Execute(sp.plan.get(), config);
    EXPECT_GT(stats.budget_deferrals, 0u);
    uint64_t defer_events = 0, release_events = 0;
    for (const obs::TraceEvent& e : trace.SortedEvents()) {
      if (e.type == obs::TraceEventType::kBudgetDefer) ++defer_events;
      if (e.type == obs::TraceEventType::kBudgetRelease) ++release_events;
    }
    EXPECT_EQ(defer_events, stats.budget_deferrals);
    EXPECT_EQ(release_events, stats.budget_deferrals);
    EXPECT_EQ(CanonicalRows(*sp.plan->result_table()), expected);
  }
}

/// MakeSelectProbePlan plus a group-by aggregation consuming the probe
/// output: select -> probe -> agg, two streaming edges
/// (0: select->probe, 1: probe->agg).
struct ChainPlan {
  std::unique_ptr<QueryPlan> plan;
  int select_op = -1;
  int probe_op = -1;
  int agg_op = -1;
};

ChainPlan MakeSelectProbeAggPlan(StorageManager* storage,
                                 const Table& probe_table,
                                 const Table& build_table, double threshold,
                                 size_t temp_block_bytes) {
  SelectProbePlan sp = MakeSelectProbePlan(storage, probe_table, build_table,
                                           threshold, temp_block_bytes);
  ChainPlan out;
  out.plan = std::move(sp.plan);
  out.select_op = sp.select_op;
  out.probe_op = sp.probe_op;
  QueryPlan* plan = out.plan.get();

  const Schema& probe_schema = plan->result_table()->schema();
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum_v"});
  Schema agg_schema =
      AggregateOperator::OutputSchema(probe_schema, {0}, aggs);
  Table* agg_out = plan->CreateTempTable("agg.out", agg_schema,
                                         Layout::kRowStore,
                                         temp_block_bytes);
  InsertDestination* agg_dest = plan->CreateDestination(agg_out);
  auto agg = std::make_unique<AggregateOperator>(
      "agg", probe_schema, std::vector<int>{0}, std::move(aggs), nullptr,
      agg_dest, &plan->storage()->tracker());
  out.agg_op = plan->AddOperator(std::move(agg));
  plan->RegisterOutput(out.agg_op, agg_dest);
  plan->AddStreamingEdge(out.probe_op, out.agg_op);
  plan->SetResultTable(agg_out);
  return out;
}

TEST(PerEdgeUotTest, AnnotationOverridesSessionDefault) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 4000, 40,
                                 Layout::kRowStore, 1024);
  auto build_table = MakeKvTable(&storage, "build", 40, 40,
                                 Layout::kRowStore, 1024);

  ExecConfig config;
  config.num_workers = 2;
  config.uot = UotPolicy::LowUot(1);

  auto reference = MakeSelectProbePlan(&storage, *probe_table, *build_table,
                                       0.0, 1024);
  ExecutionStats ref_stats =
      QueryExecutor::Execute(reference.plan.get(), config);
  const std::string expected =
      CanonicalRows(*reference.plan->result_table());
  ASSERT_FALSE(expected.empty());
  ASSERT_GT(ref_stats.edges[0].transfers, 1u);  // many 1-block transfers

  auto pinned = MakeSelectProbePlan(&storage, *probe_table, *build_table,
                                    0.0, 1024);
  pinned.plan->AnnotateEdgeUot(0, UotPolicy::HighUot());
  ASSERT_TRUE(pinned.plan->edge_uot(0).has_value());
  EXPECT_TRUE(pinned.plan->edge_uot(0)->IsWholeTable());
  EXPECT_NE(pinned.plan->ToString().find("UoT=whole-table"),
            std::string::npos);
  ExecutionStats stats = QueryExecutor::Execute(pinned.plan.get(), config);
  // The pinned edge materialized (one transfer at producer finish) even
  // though the session default is 1-block pipelining.
  EXPECT_EQ(stats.edges[0].transfers, 1u);
  EXPECT_EQ(CanonicalRows(*pinned.plan->result_table()), expected);
}

TEST(PerEdgeUotTest, MixedPoliciesAreByteIdenticalAcrossChain) {
  // Whole-table producer feeding a 1-block consumer, and vice versa: every
  // mix over the select -> probe -> agg chain must give identical results.
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 5000, 50,
                                 Layout::kRowStore, 1024);
  auto build_table = MakeKvTable(&storage, "build", 50, 50,
                                 Layout::kRowStore, 1024);

  ExecConfig config;
  config.num_workers = 4;
  config.uot = UotPolicy::LowUot(1);

  std::string expected;
  {
    auto reference = MakeSelectProbeAggPlan(&storage, *probe_table,
                                            *build_table, 0.0, 1024);
    QueryExecutor::Execute(reference.plan.get(), config);
    expected = CanonicalRows(*reference.plan->result_table());
    ASSERT_FALSE(expected.empty());
  }

  const uint64_t kWhole = UotPolicy::kWholeTable;
  const struct {
    uint64_t edge0;  // select -> probe
    uint64_t edge1;  // probe -> agg
  } mixes[] = {{kWhole, 1}, {1, kWhole}, {4, kWhole}, {kWhole, kWhole},
               {2, 8}};
  for (const auto& mix : mixes) {
    auto chain = MakeSelectProbeAggPlan(&storage, *probe_table, *build_table,
                                        0.0, 1024);
    chain.plan->AnnotateEdgeUot(0, UotPolicy(mix.edge0));
    chain.plan->AnnotateEdgeUot(1, UotPolicy(mix.edge1));
    ExecutionStats stats = QueryExecutor::Execute(chain.plan.get(), config);
    EXPECT_EQ(CanonicalRows(*chain.plan->result_table()), expected)
        << "mix " << UotPolicy(mix.edge0).ToString() << " / "
        << UotPolicy(mix.edge1).ToString() << "\n"
        << obs::QueryProfile::FromRun(nullptr, stats).ToString();
    if (mix.edge0 == kWhole) {
      EXPECT_EQ(stats.edges[0].transfers, 1u);
    }
    if (mix.edge1 == kWhole) {
      EXPECT_EQ(stats.edges[1].transfers, 1u);
    }
  }
}

TEST(PerEdgeUotTest, ZeroOutputProducerCompletesUnderEveryMix) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 1000, 10,
                                 Layout::kRowStore, 1024);
  auto build_table = MakeKvTable(&storage, "build", 10, 10,
                                 Layout::kRowStore, 1024);

  ExecConfig config;
  config.num_workers = 2;
  const uint64_t kWhole = UotPolicy::kWholeTable;
  const struct {
    uint64_t edge0;
    uint64_t edge1;
  } mixes[] = {{kWhole, 1}, {1, kWhole}, {kWhole, kWhole}};
  for (const auto& mix : mixes) {
    // Threshold no value reaches: the select produces zero blocks.
    auto chain = MakeSelectProbeAggPlan(&storage, *probe_table, *build_table,
                                        1e12, 1024);
    chain.plan->AnnotateEdgeUot(0, UotPolicy(mix.edge0));
    chain.plan->AnnotateEdgeUot(1, UotPolicy(mix.edge1));
    ExecutionStats stats = QueryExecutor::Execute(chain.plan.get(), config);
    EXPECT_EQ(chain.plan->result_table()->NumRows(), 0u);
    // An empty stream delivers no transfers, only the final flush.
    EXPECT_EQ(stats.edges[0].transfers, 0u);
    EXPECT_EQ(stats.edges[1].transfers, 0u);
  }
}

TEST(PerEdgeUotTest, MultiInputConsumerWithMixedEdgeUot) {
  // A sort-merge join with one materializing input edge and one pipelining
  // input edge: results match the all-pipelining run and both consumed
  // intermediates are still dropped.
  StorageManager storage;
  auto left_in = MakeKvTable(&storage, "left", 300, 10,
                             Layout::kRowStore, 1024);
  auto right_in = MakeKvTable(&storage, "right", 300, 10,
                              Layout::kRowStore, 1024);

  auto make_plan = [&](uint64_t left_uot, uint64_t right_uot) {
    auto plan = std::make_unique<QueryPlan>(&storage);
    std::vector<Table*> sel_outs;
    std::vector<int> sel_ops;
    const Table* inputs[2] = {left_in.get(), right_in.get()};
    for (int side = 0; side < 2; ++side) {
      auto proj = Projection::Identity(inputs[side]->schema(), {0, 1});
      Schema sel_schema = proj->output_schema();
      Table* sel_out = plan->CreateTempTable("sel" + std::to_string(side),
                                             sel_schema, Layout::kRowStore,
                                             1024);
      InsertDestination* sel_dest = plan->CreateDestination(sel_out);
      auto select = std::make_unique<SelectOperator>(
          "select" + std::to_string(side), std::make_unique<TruePredicate>(),
          std::move(proj), sel_dest);
      select->AttachBaseTable(inputs[side]);
      const int op = plan->AddOperator(std::move(select));
      plan->RegisterOutput(op, sel_dest);
      sel_outs.push_back(sel_out);
      sel_ops.push_back(op);
    }
    Schema join_schema = SortMergeJoinOperator::OutputSchema(
        sel_outs[0]->schema(), {0, 1}, sel_outs[1]->schema(), {1});
    Table* join_out = plan->CreateTempTable("join.out", join_schema,
                                            Layout::kRowStore, 4096);
    InsertDestination* join_dest = plan->CreateDestination(join_out);
    auto join = std::make_unique<SortMergeJoinOperator>(
        "smj", sel_outs[0]->schema(), sel_outs[1]->schema(),
        std::vector<int>{0}, std::vector<int>{0}, std::vector<int>{0, 1},
        std::vector<int>{1}, join_dest);
    const int join_op = plan->AddOperator(std::move(join));
    plan->RegisterOutput(join_op, join_dest);
    plan->AddStreamingEdge(sel_ops[0], join_op, /*consumer_input=*/0);
    plan->AddStreamingEdge(sel_ops[1], join_op, /*consumer_input=*/1);
    plan->SetResultTable(join_out);
    if (left_uot != 0) plan->AnnotateEdgeUot(0, UotPolicy(left_uot));
    if (right_uot != 0) plan->AnnotateEdgeUot(1, UotPolicy(right_uot));
    struct Out {
      std::unique_ptr<QueryPlan> plan;
      Table* left_intermediate;
      Table* right_intermediate;
    };
    return Out{std::move(plan), sel_outs[0], sel_outs[1]};
  };

  ExecConfig config;
  config.num_workers = 2;
  config.uot = UotPolicy::LowUot(1);

  auto reference = make_plan(0, 0);
  QueryExecutor::Execute(reference.plan.get(), config);
  const std::string expected = CanonicalRows(*reference.plan->result_table());
  ASSERT_FALSE(expected.empty());

  const uint64_t kWhole = UotPolicy::kWholeTable;
  const struct {
    uint64_t left;
    uint64_t right;
  } mixes[] = {{kWhole, 1}, {1, kWhole}, {kWhole, kWhole}};
  for (const auto& mix : mixes) {
    auto mixed = make_plan(mix.left, mix.right);
    ExecutionStats stats = QueryExecutor::Execute(mixed.plan.get(), config);
    EXPECT_EQ(CanonicalRows(*mixed.plan->result_table()), expected);
    if (mix.left == kWhole) {
      EXPECT_EQ(stats.edges[0].transfers, 1u);
    }
    if (mix.right == kWhole) {
      EXPECT_EQ(stats.edges[1].transfers, 1u);
    }
    EXPECT_TRUE(mixed.left_intermediate->blocks().empty());
    EXPECT_TRUE(mixed.right_intermediate->blocks().empty());
  }
}

/// A per-edge policy expressed through the interface instead of plan
/// annotations: edge 0 materializes, every other edge pipelines.
class FirstEdgeMaterializesPolicy final : public EdgeUotPolicy {
 public:
  using EdgeUotPolicy::BlocksPerTransfer;
  uint64_t BlocksPerTransfer(const EdgeRuntimeState& edge) override {
    return edge.edge_index == 0 ? UotPolicy::kWholeTable : 1;
  }
  std::string ToString() const override { return "first-edge-whole"; }
};

TEST(PerEdgeUotTest, InterfacePolicyMatchesEquivalentAnnotations) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 4000, 40,
                                 Layout::kRowStore, 1024);
  auto build_table = MakeKvTable(&storage, "build", 40, 40,
                                 Layout::kRowStore, 1024);

  auto annotated = MakeSelectProbeAggPlan(&storage, *probe_table,
                                          *build_table, 0.0, 1024);
  annotated.plan->AnnotateEdgeUot(0, UotPolicy::HighUot());
  annotated.plan->AnnotateEdgeUot(1, UotPolicy::LowUot(1));
  ExecConfig config;
  config.num_workers = 2;
  ExecutionStats annotated_stats =
      QueryExecutor::Execute(annotated.plan.get(), config);

  auto via_policy = MakeSelectProbeAggPlan(&storage, *probe_table,
                                           *build_table, 0.0, 1024);
  ExecConfig policy_config;
  policy_config.num_workers = 2;
  policy_config.uot_policy =
      std::make_shared<FirstEdgeMaterializesPolicy>();
  ExecutionStats policy_stats =
      QueryExecutor::Execute(via_policy.plan.get(), policy_config);

  EXPECT_EQ(CanonicalRows(*via_policy.plan->result_table()),
            CanonicalRows(*annotated.plan->result_table()));
  // Edge 0 materializes and edge 1 pipelines block by block in both runs.
  for (const ExecutionStats* stats : {&annotated_stats, &policy_stats}) {
    ASSERT_EQ(stats->edges.size(), 2u);
    EXPECT_TRUE(
        TransfersMatchUot(stats->edges[0], UotPolicy::kWholeTable));
    EXPECT_TRUE(TransfersMatchUot(stats->edges[1], 1));
  }
  EXPECT_NE(policy_stats.config_summary.find("first-edge-whole"),
            std::string::npos);
}

/// A broken policy: returns 0 blocks per transfer.
class ZeroUotPolicy final : public EdgeUotPolicy {
 public:
  using EdgeUotPolicy::BlocksPerTransfer;
  uint64_t BlocksPerTransfer(const EdgeRuntimeState&) override { return 0; }
  std::string ToString() const override { return "zero"; }
};

TEST(PerEdgeUotDeathTest, PolicyReturningZeroAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 200, 10,
                                 Layout::kRowStore, 1024);
  auto build_table = MakeKvTable(&storage, "build", 10, 10,
                                 Layout::kRowStore, 1024);
  auto sp = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                1024);
  ExecConfig config;
  config.num_workers = 1;
  config.uot_policy = std::make_shared<ZeroUotPolicy>();
  EXPECT_DEATH(QueryExecutor::Execute(sp.plan.get(), config),
               "blocks != 0");
}

TEST(PerEdgeUotTest, AdaptivePolicyNarrowsUnderBudgetPressure) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 8000, 10,
                                 Layout::kRowStore, 1024);
  auto build_table = MakeKvTable(&storage, "build", 10, 10,
                                 Layout::kRowStore, 1024);

  ExecConfig config;
  config.num_workers = 2;
  std::string expected;
  {
    auto free_run = MakeSelectProbePlan(&storage, *probe_table, *build_table,
                                        0.0, 1024);
    QueryExecutor::Execute(free_run.plan.get(), config);
    expected = CanonicalRows(*free_run.plan->result_table());
  }

  auto sp = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                1024);
  auto adaptive = std::make_shared<AdaptiveUotPolicy>();
  config.uot_policy = adaptive;
  config.memory_budget_bytes = 1;  // every consultation sees pressure
  ExecutionStats stats = QueryExecutor::Execute(sp.plan.get(), config);

  EXPECT_EQ(CanonicalRows(*sp.plan->result_table()), expected);
  // Seeded at 4 blocks, pressure narrows toward 1: at least one adaptation,
  // mirrored in the policy, the stats count and the decision log (every
  // decision after edge 0's seed is an adaptation).
  EXPECT_GE(adaptive->adaptations(), 1u);
  EXPECT_GE(stats.uot_adaptations, 1u);
  uint64_t edge0_decisions = 0;
  uint64_t last_edge0_blocks = 0;
  for (const UotDecisionRecord& d : stats.uot_decisions) {
    if (d.edge != 0) continue;
    ++edge0_decisions;
    last_edge0_blocks = d.to_blocks;
  }
  ASSERT_EQ(stats.edges.size(), 1u);
  EXPECT_EQ(edge0_decisions, stats.uot_adaptations + 1);
  // Narrowed all the way down, and the edge flushed at that UoT.
  EXPECT_EQ(last_edge0_blocks, 1u);
  EXPECT_EQ(stats.edges[0].final_uot_blocks, 1u);
  EXPECT_NE(stats.config_summary.find("adaptive("), std::string::npos);
}

TEST(PerEdgeUotTest, BudgetStallsCountDeniedReleases) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 8000, 10,
                                 Layout::kRowStore, 1024);
  auto build_table = MakeKvTable(&storage, "build", 10, 10,
                                 Layout::kRowStore, 1024);

  obs::TraceSession trace;
  auto sp = MakeSelectProbePlan(&storage, *probe_table, *build_table, 0.0,
                                1024);
  ExecConfig config;
  config.num_workers = 2;
  config.uot = UotPolicy::LowUot(1);
  config.memory_budget_bytes = 1;  // permanently over budget
  config.trace = &trace;
  ExecutionStats stats = QueryExecutor::Execute(sp.plan.get(), config);

  // Every stall is a release the budget denied; the trace records each
  // deferral as one defer instant.
  EXPECT_GT(stats.budget_stalls, 0u);
  uint64_t defer_events = 0;
  for (const obs::TraceEvent& e : trace.SortedEvents()) {
    if (e.type == obs::TraceEventType::kBudgetDefer) ++defer_events;
  }
  EXPECT_EQ(defer_events, stats.budget_deferrals);
}

}  // namespace
}  // namespace uot

#include <gtest/gtest.h>

#include "exec/adaptive_uot_policy.h"
#include "exec/query_executor.h"
#include "scheduler/scheduler.h"
#include "scheduler/uot_policy.h"
#include "operators/select_operator.h"
#include "test_util.h"

namespace uot {
namespace {

using testing::MakeKvTable;

TEST(UotPolicyTest, DefaultsToOneBlock) {
  UotPolicy policy;
  EXPECT_FALSE(policy.IsWholeTable());
  EXPECT_EQ(policy.blocks_per_transfer(), 1u);
}

TEST(UotPolicyDeathTest, ZeroBlocksIsInvalid) {
  // A UoT of zero blocks is meaningless; a chooser/policy bug producing it
  // must abort loudly instead of silently degrading to pipelining.
  EXPECT_DEATH(UotPolicy policy(0), "blocks_per_transfer != 0");
}

TEST(UotPolicyTest, FixedPolicyReturnsItsValueForAnyEdgeState) {
  FixedUotPolicy one(UotPolicy::LowUot(1));
  FixedUotPolicy eight(UotPolicy::LowUot(8));
  FixedUotPolicy whole(UotPolicy::HighUot());
  EdgeRuntimeState edge;
  for (int i = 0; i < 3; ++i) {
    edge.edge_index = i;
    edge.buffered_blocks = static_cast<uint64_t>(100 * i);
    edge.deferred_work_orders = static_cast<uint64_t>(i);
    edge.tracked_bytes = 1 << 30;
    edge.memory_budget_bytes = 1;
    EXPECT_EQ(one.BlocksPerTransfer(edge), 1u);
    EXPECT_EQ(eight.BlocksPerTransfer(edge), 8u);
    EXPECT_EQ(whole.BlocksPerTransfer(edge), UotPolicy::kWholeTable);
  }
  EXPECT_EQ(one.ToString(), "fixed(UoT=1-block(s))");
  EXPECT_EQ(whole.ToString(), "fixed(UoT=whole-table)");
}

TEST(ExecConfigTest, ToStringShowsResolvedPolicyAndJoinKnobs) {
  ExecConfig config;
  config.num_workers = 3;
  config.uot = UotPolicy::LowUot(2);
  const std::string fixed = config.ToString();
  EXPECT_NE(fixed.find("workers=3"), std::string::npos);
  EXPECT_NE(fixed.find("fixed(UoT=2-block(s))"), std::string::npos);
  EXPECT_NE(fixed.find("join=batched(batch=256,prefetch=16)"),
            std::string::npos);

  config.uot_policy = std::make_shared<AdaptiveUotPolicy>();
  config.memory_budget_bytes = 123456;
  config.join.batch_size = 1;
  config.join.prefetch_distance = 0;
  const std::string adaptive = config.ToString();
  EXPECT_NE(adaptive.find("adaptive("), std::string::npos);
  EXPECT_NE(adaptive.find("budget=123456B"), std::string::npos);
  EXPECT_NE(adaptive.find("join=batched(batch=1,prefetch=0)"),
            std::string::npos);
}

TEST(UotPolicyTest, WholeTableSentinel) {
  EXPECT_TRUE(UotPolicy::HighUot().IsWholeTable());
  EXPECT_FALSE(UotPolicy::LowUot(1000000).IsWholeTable());
}

TEST(UotPolicyTest, ToStringFormats) {
  EXPECT_EQ(UotPolicy::LowUot(1).ToString(), "UoT=1-block(s)");
  EXPECT_EQ(UotPolicy::LowUot(8).ToString(), "UoT=8-block(s)");
  EXPECT_EQ(UotPolicy::HighUot().ToString(), "UoT=whole-table");
}

TEST(RenderTableTest, HeaderRowsAndTruncation) {
  StorageManager storage;
  auto table = MakeKvTable(&storage, "t", 30, 5);
  const std::string out = RenderTable(*table, 3);
  EXPECT_NE(out.find("k | v"), std::string::npos);
  EXPECT_NE(out.find("(30 rows total)"), std::string::npos);
  // Exactly 3 data lines plus header plus ellipsis.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(RenderTableTest, FullTableHasNoEllipsis) {
  StorageManager storage;
  auto table = MakeKvTable(&storage, "t", 2, 5);
  const std::string out = RenderTable(*table, 10);
  EXPECT_EQ(out.find("rows total"), std::string::npos);
}

TEST(CanonicalRowsTest, SortsRows) {
  StorageManager storage;
  Schema s({{"x", Type::Int32()}});
  Table table("t", s, Layout::kRowStore, 4096, &storage,
              MemoryCategory::kBaseTable);
  for (int v : {3, 1, 2}) table.AppendValues({TypedValue::Int32(v)});
  EXPECT_EQ(CanonicalRows(table), "1\n2\n3\n");
}

TEST(CanonicalRowsTest, RoundsDoublesToSevenSignificantDigits) {
  StorageManager storage;
  Schema s({{"x", Type::Double()}});
  Table table("t", s, Layout::kRowStore, 4096, &storage,
              MemoryCategory::kBaseTable);
  table.AppendValues({TypedValue::Double(72607618.934)});
  Table table2("t2", s, Layout::kRowStore, 4096, &storage,
               MemoryCategory::kBaseTable);
  table2.AppendValues({TypedValue::Double(72607618.938)});
  // Values differing only past the 7th significant digit canonicalize
  // identically (aggregation merge order must not affect comparisons).
  EXPECT_EQ(CanonicalRows(table), CanonicalRows(table2));
}

TEST(CanonicalRowsTest, EmptyTableIsEmptyString) {
  StorageManager storage;
  auto table = MakeKvTable(&storage, "t", 0, 5);
  EXPECT_EQ(CanonicalRows(*table), "");
}

TEST(ExecutorTest, PlanWithOnlyLeafOperator) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 100, 10);
  QueryPlan plan(&storage);
  auto proj = Projection::Identity(input->schema(), {0});
  Table* out = plan.CreateTempTable("out", proj->output_schema(),
                                    Layout::kRowStore, 4096);
  InsertDestination* dest = plan.CreateDestination(out);
  auto select = std::make_unique<SelectOperator>(
      "select", std::make_unique<TruePredicate>(), std::move(proj), dest);
  select->AttachBaseTable(input.get());
  const int op = plan.AddOperator(std::move(select));
  plan.RegisterOutput(op, dest);
  plan.SetResultTable(out);

  ExecConfig config;
  config.num_workers = 1;
  const ExecutionStats stats = QueryExecutor::Execute(&plan, config);
  EXPECT_EQ(out->NumRows(), 100u);
  EXPECT_EQ(stats.operators.size(), 1u);
  EXPECT_EQ(stats.edges.size(), 0u);
  // Startup logging satellite: stats carry the resolved config so failures
  // show which policy actually ran.
  EXPECT_NE(stats.config_summary.find("fixed(UoT=1-block(s))"),
            std::string::npos);
  EXPECT_NE(stats.ToString().find("ExecConfig{"), std::string::npos);
  // No records for nonexistent op: AverageDop of an op with no work.
  EXPECT_DOUBLE_EQ(stats.AverageDop(0), stats.AverageDop(0));
  EXPECT_GT(stats.AverageDop(0), 0.0);
}

TEST(ExecutorTest, RepeatedExecutionOfFreshPlansIsStable) {
  StorageManager storage;
  auto probe = MakeKvTable(&storage, "p", 500, 25);
  std::string first;
  for (int i = 0; i < 3; ++i) {
    QueryPlan plan(&storage);
    auto proj = Projection::Identity(probe->schema(), {0, 1});
    Table* out = plan.CreateTempTable("out", proj->output_schema(),
                                      Layout::kRowStore, 512);
    InsertDestination* dest = plan.CreateDestination(out);
    auto select = std::make_unique<SelectOperator>(
        "select",
        Cmp(CompareOp::kLt, Col(1, Type::Double()), LitDouble(100.0)),
        std::move(proj), dest);
    select->AttachBaseTable(probe.get());
    const int op = plan.AddOperator(std::move(select));
    plan.RegisterOutput(op, dest);
    plan.SetResultTable(out);
    ExecConfig config;
    config.num_workers = 2;
    QueryExecutor::Execute(&plan, config);
    const std::string rows = CanonicalRows(*out);
    if (first.empty()) {
      first = rows;
    } else {
      EXPECT_EQ(rows, first);
    }
  }
  EXPECT_FALSE(first.empty());
}

}  // namespace
}  // namespace uot

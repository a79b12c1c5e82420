#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exec/adaptive_uot_policy.h"
#include "exec/engine.h"
#include "exec/query_executor.h"
#include "obs/query_profile.h"
#include "scheduler/scheduler.h"
#include "scheduler/uot_policy.h"
#include "operators/select_operator.h"
#include "test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace uot {
namespace {

using testing::MakeKvTable;

/// TPC-H at SF 0.01 in 16 KiB blocks (hundreds of work orders per query),
/// generated once and shared (read-only) by the scheduling tests below.
constexpr size_t kSmallBlockBytes = 16 << 10;

const TpchDatabase& Tpch001() {
  static StorageManager* storage = new StorageManager();
  static TpchDatabase* db = [] {
    auto* d = new TpchDatabase(storage);
    TpchConfig config;
    config.scale_factor = 0.01;
    config.block_bytes = kSmallBlockBytes;
    d->Generate(config);
    return d;
  }();
  return *db;
}

std::unique_ptr<QueryPlan> SmallBlockTpchPlan(int query) {
  TpchPlanConfig config;
  config.block_bytes = kSmallBlockBytes;
  return BuildTpchPlan(query, Tpch001(), config);
}

/// Runs `plan` on `engine` from a helper thread and waits at most
/// `deadline` for it. A query that never finishes (a lost wakeup) fails
/// the assertion, and the still-joinable thread then aborts the suite
/// instead of hanging it.
ExecutionStats ExecuteWithDeadline(Engine* engine, QueryPlan* plan,
                                   const ExecConfig& config,
                                   std::chrono::seconds deadline) {
  ExecutionStats stats;
  std::atomic<bool> done{false};
  std::thread runner([&] {
    stats = engine->Execute(plan, config);
    done.store(true);
  });
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!done.load() && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!done.load()) {
    ADD_FAILURE() << "query did not finish within " << deadline.count()
                  << " s: " << config.ToString();
    std::abort();
  }
  runner.join();
  return stats;
}

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
  EXPECT_NE(obs::QueryProfile::FromRun(nullptr, stats)
                .ToString()
                .find("config: ExecConfig{"),
            std::string::npos);
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

// Workers account their own work orders and wake the coordinator only
// when an operator drains. An operator drains at most once per batch of
// work it was given: at its start (or unblocking) and after each transfer
// into it. Whatever the schedule, the wakeups stay within that bound and
// the records still cover every work order.
TEST(CompletionEventTest, WakeupsStayWithinTransfersPlusOperators) {
  constexpr uint64_t kUot = 4;
  for (const int workers : {1, 4}) {
    EngineConfig engine_config;
    engine_config.num_workers = workers;
    Engine engine(engine_config);
    for (const int query : {1, 3, 21}) {
      auto plan = SmallBlockTpchPlan(query);
      ExecConfig config;
      config.uot = UotPolicy::LowUot(kUot);
      const ExecutionStats stats = engine.Execute(plan.get(), config);
      const std::string where = std::string("Q")
                                    .append(std::to_string(query))
                                    .append(" at ")
                                    .append(std::to_string(workers))
                                    .append(" worker(s)");

      uint64_t transfers = 0;
      for (const EdgeStats& edge : stats.edges) {
        EXPECT_TRUE(testing::TransfersMatchUot(edge, kUot)) << where;
        transfers += edge.transfers;
      }
      EXPECT_LE(stats.completion_events,
                transfers + stats.operators.size())
          << where;
      EXPECT_GE(stats.coordinator_events, stats.completion_events) << where;
      EXPECT_GT(stats.coordinator_busy_ns, 0) << where;

      uint64_t work_orders = 0;
      for (const OperatorStats& os : stats.operators) {
        work_orders += os.num_work_orders;
      }
      EXPECT_EQ(stats.records.size(), work_orders) << where;
      EXPECT_GT(stats.records.size(), stats.completion_events) << where;
      EXPECT_TRUE(std::is_sorted(stats.records.begin(), stats.records.end(),
                                 [](const WorkOrderRecord& a,
                                    const WorkOrderRecord& b) {
                                   return a.end_ns < b.end_ns;
                                 }))
          << where;
      for (const WorkOrderRecord& r : stats.records) {
        ASSERT_GT(r.dispatch_ns, 0) << where;
        ASSERT_LE(r.dispatch_ns, r.start_ns) << where;
        ASSERT_LE(r.start_ns, r.end_ns) << where;
      }
    }
  }
}

// memory_budget_bytes = 1 keeps every session permanently over budget:
// producer work orders are deferred and released one at a time, each
// release waiting on the completion of the one before. A completion that
// raced past a deferral without posting its event would leave the query
// stuck with nothing running. Fused chain heads defer their work only when
// their last build finishes, from an operator-flush event rather than a
// completion.
TEST(CompletionEventTest, BudgetDeferralsNeverLoseAWakeup) {
  for (const int workers : {1, 4}) {
    EngineConfig engine_config;
    engine_config.num_workers = workers;
    Engine engine(engine_config);
    for (const int query : {3, 6}) {
      auto reference_plan = SmallBlockTpchPlan(query);
      engine.Execute(reference_plan.get(), ExecConfig{});
      const std::string expected =
          CanonicalRows(*reference_plan->result_table());
      for (const PipelineMode mode :
           {PipelineMode::kVectorized, PipelineMode::kFused}) {
        for (int run = 0; run < 3; ++run) {
          auto plan = SmallBlockTpchPlan(query);
          ExecConfig config;
          config.memory_budget_bytes = 1;
          config.pipeline_mode = mode;
          const std::string where = std::string("Q")
                                        .append(std::to_string(query))
                                        .append(" ")
                                        .append(PipelineModeName(mode))
                                        .append(" at ")
                                        .append(std::to_string(workers))
                                        .append(" worker(s)");
          const ExecutionStats stats = ExecuteWithDeadline(
              &engine, plan.get(), config, std::chrono::seconds(120));
          EXPECT_GT(stats.budget_deferrals, 0u) << where;
          EXPECT_EQ(CanonicalRows(*plan->result_table()), expected) << where;
        }
      }
    }
  }
}

// Many tiny sessions ending back to back on one engine: a session's
// Run() may only return once no worker can touch it again, however the
// last work orders' tails interleave with the next session's start.
TEST(CompletionEventTest, ManyTinySessionsOnOneEngine) {
  EngineConfig engine_config;
  engine_config.num_workers = 4;
  Engine engine(engine_config);
  auto reference_plan = SmallBlockTpchPlan(6);
  engine.Execute(reference_plan.get(), ExecConfig{});
  const std::string expected = CanonicalRows(*reference_plan->result_table());

  constexpr int kThreads = 8, kSessionsPerThread = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        auto plan = SmallBlockTpchPlan(6);
        ExecConfig config;
        config.uot = UotPolicy::LowUot(1 + static_cast<uint64_t>(i % 3));
        const ExecutionStats stats = engine.Execute(plan.get(), config);
        uint64_t work_orders = 0;
        for (const OperatorStats& os : stats.operators) {
          work_orders += os.num_work_orders;
        }
        if (CanonicalRows(*plan->result_table()) != expected ||
            work_orders != stats.records.size()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.queries_executed(),
            static_cast<uint64_t>(1 + kThreads * kSessionsPerThread));
}

}  // namespace
}  // namespace uot

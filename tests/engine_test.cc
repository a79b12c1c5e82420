#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/adaptive_uot_policy.h"
#include "exec/engine.h"
#include "exec/query_executor.h"
#include "obs/metrics.h"
#include "obs/trace_session.h"
#include "operators/aggregate_operator.h"
#include "operators/select_operator.h"
#include "test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace uot {
namespace {

using testing::MakeKvTable;

/// A simple latch so concurrently submitted queries really race: every
/// thread blocks here until all have been spawned.
class StartGate {
 public:
  explicit StartGate(int expected) : expected_(expected) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ >= expected_) {
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [this] { return arrived_ >= expected_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  const int expected_;
  int arrived_ = 0;
};

/// A manually opened gate: work orders built on it block a worker until
/// the test releases them, making admission races deterministic.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// An operator whose single work order blocks on a Gate: a query of
/// test-controlled duration.
class GateOperator final : public Operator {
 public:
  GateOperator(std::string name, Gate* gate)
      : Operator(std::move(name)), gate_(gate) {}

  bool GenerateWorkOrders(
      std::vector<std::unique_ptr<WorkOrder>>* out) override {
    if (!emitted_) {
      emitted_ = true;
      out->push_back(std::make_unique<GateWorkOrder>(gate_));
    }
    return true;
  }

 private:
  struct GateWorkOrder final : WorkOrder {
    explicit GateWorkOrder(Gate* g) : gate(g) {}
    void Execute() override { gate->Wait(); }
    Gate* gate;
  };

  Gate* gate_;
  bool emitted_ = false;
};

/// Spins until `done()` holds or a generous deadline passes; returns
/// whether it held. A broken admission predicate then fails a test instead
/// of hanging it.
template <typename Pred>
bool SpinUntil(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

std::unique_ptr<QueryPlan> MakeGatedPlan(StorageManager* storage, Gate* gate) {
  auto plan = std::make_unique<QueryPlan>(storage);
  plan->AddOperator(std::make_unique<GateOperator>("gate", gate));
  return plan;
}

/// select(in: v >= threshold) -> agg(sum(v)) over a plan-owned pipeline:
/// a small two-operator plan for engine-level tests.
std::unique_ptr<QueryPlan> MakeSelectAggPlan(StorageManager* storage,
                                             const Table& input,
                                             double threshold) {
  auto plan = std::make_unique<QueryPlan>(storage);
  auto proj = Projection::Identity(input.schema(), {0, 1});
  Schema sel_schema = proj->output_schema();
  Table* sel_out = plan->CreateTempTable("sel.out", sel_schema,
                                         Layout::kRowStore, 1024);
  InsertDestination* sel_dest = plan->CreateDestination(sel_out);
  auto select = std::make_unique<SelectOperator>(
      "select",
      Cmp(CompareOp::kGe, Col(1, Type::Double()), LitDouble(threshold)),
      std::move(proj), sel_dest);
  select->AttachBaseTable(&input);
  const int select_op = plan->AddOperator(std::move(select));
  plan->RegisterOutput(select_op, sel_dest);

  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
  Schema agg_schema = AggregateOperator::OutputSchema(sel_schema, {}, aggs);
  Table* agg_out = plan->CreateTempTable("agg.out", agg_schema,
                                         Layout::kRowStore, 1024);
  InsertDestination* agg_dest = plan->CreateDestination(agg_out);
  auto agg = std::make_unique<AggregateOperator>(
      "agg", sel_schema, std::vector<int>{}, std::move(aggs), nullptr,
      agg_dest, &plan->storage()->tracker());
  const int agg_op = plan->AddOperator(std::move(agg));
  plan->RegisterOutput(agg_op, agg_dest);
  plan->AddStreamingEdge(select_op, agg_op);
  plan->SetResultTable(agg_out);
  return plan;
}

TEST(EngineTest, RunsManyQueriesSequentiallyOnOnePool) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 4000, 10, Layout::kRowStore, 2048);

  EngineConfig engine_config;
  engine_config.num_workers = 4;
  Engine engine(engine_config);

  ExecConfig config;
  config.uot = UotPolicy::LowUot(1);
  std::string expected;
  for (int i = 0; i < 3; ++i) {
    auto plan = MakeSelectAggPlan(&storage, *input, 0.0);
    ExecutionStats stats = engine.Execute(plan.get(), config);
    EXPECT_GT(stats.records.size(), 0u);
    EXPECT_GT(stats.query_id, 0u);
    const std::string rows = CanonicalRows(*plan->result_table());
    if (i == 0) {
      expected = rows;
    } else {
      EXPECT_EQ(rows, expected);
    }
  }
  EXPECT_EQ(engine.queries_executed(), 3u);
  EXPECT_EQ(engine.active_queries(), 0);
}

TEST(EngineTest, ConcurrentSyntheticQueriesMatchSerial) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 8000, 16, Layout::kRowStore, 2048);

  ExecConfig config;
  config.uot = UotPolicy::LowUot(1);

  std::string expected;
  {
    auto plan = MakeSelectAggPlan(&storage, *input, 100.0);
    QueryExecutor::Execute(plan.get(), config);
    expected = CanonicalRows(*plan->result_table());
  }
  ASSERT_FALSE(expected.empty());

  EngineConfig engine_config;
  engine_config.num_workers = 4;
  Engine engine(engine_config);

  constexpr int kQueries = 6;
  std::vector<std::unique_ptr<QueryPlan>> plans;
  for (int i = 0; i < kQueries; ++i) {
    plans.push_back(MakeSelectAggPlan(&storage, *input, 100.0));
  }
  StartGate gate(kQueries);
  std::vector<std::thread> threads;
  std::vector<uint64_t> ids(kQueries, 0);
  for (int i = 0; i < kQueries; ++i) {
    threads.emplace_back([&, i] {
      gate.ArriveAndWait();
      ids[static_cast<size_t>(i)] =
          engine.Execute(plans[static_cast<size_t>(i)].get(), config)
              .query_id;
    });
  }
  for (auto& t : threads) t.join();

  std::set<uint64_t> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kQueries));
  for (const auto& plan : plans) {
    EXPECT_EQ(CanonicalRows(*plan->result_table()), expected);
  }
  EXPECT_EQ(engine.queries_executed(), static_cast<uint64_t>(kQueries));
}

/// The headline stress test: several full TPC-H queries executing
/// simultaneously on one shared engine return exactly the rows of their
/// serial runs. Run under -fsanitize=thread in CI (see UOT_TSAN).
TEST(EngineStressTest, ConcurrentTpchQueriesMatchSerial) {
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig tpch_config;
  tpch_config.scale_factor = 0.004;
  db.Generate(tpch_config);

  const std::vector<int> queries = {1, 3, 6, 10, 12, 14};
  TpchPlanConfig plan_config;

  EngineConfig engine_config;
  engine_config.num_workers = 8;
  Engine engine(engine_config);

  ExecConfig config;
  config.uot = UotPolicy::LowUot(1);

  // Serial reference runs on the same engine.
  std::map<int, std::string> expected;
  for (int query : queries) {
    auto plan = BuildTpchPlan(query, db, plan_config);
    engine.Execute(plan.get(), config);
    expected[query] = CanonicalRows(*plan->result_table());
  }

  // All queries at once, each driven by its own thread.
  std::vector<std::unique_ptr<QueryPlan>> plans;
  for (int query : queries) plans.push_back(BuildTpchPlan(query, db, plan_config));
  StartGate gate(static_cast<int>(queries.size()));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < queries.size(); ++i) {
    threads.emplace_back([&, i] {
      gate.ArriveAndWait();
      engine.Execute(plans[i].get(), config);
    });
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(CanonicalRows(*plans[i]->result_table()),
              expected[queries[i]])
        << "Q" << queries[i] << " diverged under concurrency";
  }
}

TEST(EngineTest, MaxInflightAdmissionSerializesQueries) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 20000, 16, Layout::kRowStore, 1024);

  EngineConfig engine_config;
  engine_config.num_workers = 2;
  engine_config.max_inflight_queries = 1;
  Engine engine(engine_config);

  ExecConfig config;
  config.uot = UotPolicy::LowUot(1);

  auto plan_a = MakeSelectAggPlan(&storage, *input, 0.0);
  auto plan_b = MakeSelectAggPlan(&storage, *input, 0.0);
  ExecutionStats stats_a, stats_b;
  StartGate gate(2);
  std::thread ta([&] {
    gate.ArriveAndWait();
    stats_a = engine.Execute(plan_a.get(), config);
  });
  std::thread tb([&] {
    gate.ArriveAndWait();
    stats_b = engine.Execute(plan_b.get(), config);
  });
  ta.join();
  tb.join();

  // With one admission slot the two executions must not overlap.
  const bool a_first = stats_a.query_start_ns <= stats_b.query_start_ns;
  const ExecutionStats& first = a_first ? stats_a : stats_b;
  const ExecutionStats& second = a_first ? stats_b : stats_a;
  EXPECT_GE(second.query_start_ns, first.query_end_ns);
  EXPECT_GE(second.admission_wait_ns, 0);
}

TEST(EngineTest, SharedMemoryBudgetHoldsSecondQueryAtAdmission) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 20000, 16, Layout::kRowStore, 1024);

  EngineConfig engine_config;
  engine_config.num_workers = 2;
  // The base table alone exceeds the engine budget, so only the progress
  // guarantee admits queries: one at a time.
  engine_config.memory_budget_bytes = 1;
  Engine engine(engine_config);
  ASSERT_GT(storage.tracker().TotalCurrent(), 1);

  ExecConfig config;
  config.uot = UotPolicy::LowUot(1);

  auto plan_a = MakeSelectAggPlan(&storage, *input, 0.0);
  auto plan_b = MakeSelectAggPlan(&storage, *input, 0.0);
  ExecutionStats stats_a, stats_b;
  StartGate gate(2);
  std::thread ta([&] {
    gate.ArriveAndWait();
    stats_a = engine.Execute(plan_a.get(), config);
  });
  std::thread tb([&] {
    gate.ArriveAndWait();
    stats_b = engine.Execute(plan_b.get(), config);
  });
  ta.join();
  tb.join();

  const bool a_first = stats_a.query_start_ns <= stats_b.query_start_ns;
  const ExecutionStats& first = a_first ? stats_a : stats_b;
  const ExecutionStats& second = a_first ? stats_b : stats_a;
  EXPECT_GE(second.query_start_ns, first.query_end_ns);
}

TEST(EngineTest, TraceStaysPerQueryUnderConcurrency) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 8000, 16, Layout::kRowStore, 1024);

  EngineConfig engine_config;
  engine_config.num_workers = 4;
  Engine engine(engine_config);

  constexpr int kQueries = 3;
  std::vector<std::unique_ptr<QueryPlan>> plans;
  std::vector<std::unique_ptr<obs::TraceSession>> traces;
  std::vector<ExecutionStats> stats(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    plans.push_back(MakeSelectAggPlan(&storage, *input, 0.0));
    traces.push_back(std::make_unique<obs::TraceSession>());
  }
  StartGate gate(kQueries);
  std::vector<std::thread> threads;
  for (int i = 0; i < kQueries; ++i) {
    threads.emplace_back([&, i] {
      ExecConfig config;
      config.uot = UotPolicy::LowUot(1);
      config.trace = traces[static_cast<size_t>(i)].get();
      gate.ArriveAndWait();
      stats[static_cast<size_t>(i)] =
          engine.Execute(plans[static_cast<size_t>(i)].get(), config);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kQueries; ++i) {
    size_t query_spans = 0, work_order_spans = 0;
    for (const obs::TraceEvent& e :
         traces[static_cast<size_t>(i)]->SortedEvents()) {
      if (e.type == obs::TraceEventType::kQuery) {
        ++query_spans;
        EXPECT_EQ(static_cast<uint64_t>(e.arg0),
                  stats[static_cast<size_t>(i)].query_id);
      }
      if (e.type == obs::TraceEventType::kWorkOrder) ++work_order_spans;
    }
    // Every session's trace holds exactly its own query span and exactly
    // its own work orders, no matter which pool worker executed them.
    EXPECT_EQ(query_spans, 1u);
    EXPECT_EQ(work_order_spans,
              stats[static_cast<size_t>(i)].records.size());
  }
}

TEST(EngineTest, ShutdownDrainsAndSurvivesDoubleCall) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 1000, 8, Layout::kRowStore, 1024);
  EngineConfig engine_config;
  engine_config.num_workers = 2;
  Engine engine(engine_config);
  auto plan = MakeSelectAggPlan(&storage, *input, 0.0);
  ExecConfig config;
  engine.Execute(plan.get(), config);
  engine.Shutdown();
  engine.Shutdown();  // idempotent
  EXPECT_EQ(engine.queries_executed(), 1u);
}

/// Regression: a query blocked in the admission wait when Shutdown() ran
/// used to be admitted into the already-closing worker pool (the wait
/// predicate ignored shutdown_). It must be rejected instead, and
/// Shutdown() must not close the queue while waiters are still parked.
/// Runs under -fsanitize=thread in CI.
TEST(EngineTest, ShutdownRejectsAdmissionWaiters) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 1000, 8, Layout::kRowStore, 1024);

  EngineConfig engine_config;
  engine_config.num_workers = 1;
  engine_config.max_inflight_queries = 1;
  engine_config.admission_classes.push_back(AdmissionClass{"solo", 1, 1.0});
  Engine engine(engine_config);

  ExecConfig config;
  Gate gate;
  auto gated_plan = MakeGatedPlan(&storage, &gate);
  auto waiter_plan = MakeSelectAggPlan(&storage, *input, 0.0);
  auto class_waiter_plan = MakeSelectAggPlan(&storage, *input, 0.0);

  // A occupies the single admission slot (and its class's), blocked on the
  // gate.
  Status status_a, status_b, status_c;
  ExecutionStats stats_a, stats_b, stats_c;
  std::thread ta([&] {
    status_a =
        engine.ExecuteOrReject(gated_plan.get(), config, &stats_a, "solo");
  });
  while (engine.active_queries() != 1) std::this_thread::yield();

  // B parks in the admission wait behind A; C parks behind A's class.
  std::thread tb([&] {
    status_b = engine.ExecuteOrReject(waiter_plan.get(), config, &stats_b);
  });
  while (engine.admission_waiters() != 1) std::this_thread::yield();
  std::thread tc([&] {
    status_c = engine.ExecuteOrReject(class_waiter_plan.get(), config,
                                      &stats_c, "solo");
  });
  while (engine.admission_waiters() != 2) std::this_thread::yield();

  // Shutdown while B and C wait. They can only return by rejection:
  // admission requires A to finish, and A is held on the still-closed gate.
  std::thread ts([&] { engine.Shutdown(); });
  tb.join();
  tc.join();
  EXPECT_EQ(status_b.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status_c.code(), StatusCode::kFailedPrecondition);

  gate.Open();
  ta.join();
  ts.join();
  EXPECT_TRUE(status_a.ok());
  EXPECT_EQ(engine.queries_executed(), 1u);
  EXPECT_EQ(engine.admission_waiters(), 0);
  EXPECT_EQ(engine.metrics()->GetCounter("engine.admission_rejections")
                ->Value(),
            2u);

  // After Shutdown, ExecuteOrReject rejects immediately instead of
  // CHECK-failing like Execute().
  ExecutionStats stats_d;
  auto late_plan = MakeSelectAggPlan(&storage, *input, 0.0);
  EXPECT_FALSE(engine.ExecuteOrReject(late_plan.get(), config, &stats_d).ok());
}

/// Regression: admission used notify_all + a bare headroom predicate, so
/// whichever waiter won the wake-up race got the slot — later arrivals
/// could starve an earlier query indefinitely. Tickets make admission
/// strictly FIFO: with one slot, queries must start in arrival order.
/// Runs under -fsanitize=thread in CI.
TEST(EngineTest, AdmissionIsFifoInArrivalOrder) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 1000, 8, Layout::kRowStore, 1024);

  EngineConfig engine_config;
  engine_config.num_workers = 1;
  engine_config.max_inflight_queries = 1;
  Engine engine(engine_config);

  ExecConfig config;
  Gate gate;
  auto gated_plan = MakeGatedPlan(&storage, &gate);
  std::thread ta([&] { engine.Execute(gated_plan.get(), config); });
  while (engine.active_queries() != 1) std::this_thread::yield();

  // Park B, C, D in the admission wait in a known arrival order: each is
  // observed as a waiter before the next arrives.
  constexpr int kWaiters = 3;
  std::vector<std::unique_ptr<QueryPlan>> plans;
  std::vector<ExecutionStats> stats(kWaiters);
  std::vector<std::thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    plans.push_back(MakeSelectAggPlan(&storage, *input, 0.0));
    threads.emplace_back([&, i] {
      stats[static_cast<size_t>(i)] =
          engine.Execute(plans[static_cast<size_t>(i)].get(), config);
    });
    while (engine.admission_waiters() != i + 1) std::this_thread::yield();
  }

  gate.Open();
  ta.join();
  for (auto& t : threads) t.join();

  // Query ids are handed out at admission; with one slot they record the
  // admission sequence, which FIFO ordering pins to the arrival order.
  for (int i = 0; i + 1 < kWaiters; ++i) {
    EXPECT_LT(stats[static_cast<size_t>(i)].query_id,
              stats[static_cast<size_t>(i) + 1].query_id)
        << "waiter " << i + 1 << " overtook waiter " << i << " in admission";
  }
  EXPECT_EQ(engine.queries_executed(), static_cast<uint64_t>(kWaiters) + 1);
}

/// An admission class with one slot runs its queries one at a time even
/// when the engine has room for more; the held query's wait is reported.
TEST(EngineTest, ClassSlotsBoundConcurrentQueries) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 1000, 8, Layout::kRowStore, 1024);

  EngineConfig engine_config;
  engine_config.num_workers = 2;
  engine_config.admission_classes.push_back(AdmissionClass{"solo", 1, 1.0});
  Engine engine(engine_config);

  ExecConfig config;
  Gate gate;
  auto gated_plan = MakeGatedPlan(&storage, &gate);
  auto second_plan = MakeSelectAggPlan(&storage, *input, 0.0);
  Status status_a, status_b;
  ExecutionStats stats_a, stats_b;
  std::thread ta([&] {
    status_a =
        engine.ExecuteOrReject(gated_plan.get(), config, &stats_a, "solo");
  });
  while (engine.active_queries() != 1) std::this_thread::yield();
  std::thread tb([&] {
    status_b =
        engine.ExecuteOrReject(second_plan.get(), config, &stats_b, "solo");
  });
  EXPECT_TRUE(SpinUntil([&] { return engine.admission_waiters() == 1; }))
      << "the second query of a one-slot class was not held";
  EXPECT_EQ(engine.active_queries(), 1);

  gate.Open();
  ta.join();
  tb.join();
  ASSERT_TRUE(status_a.ok());
  ASSERT_TRUE(status_b.ok());
  EXPECT_GE(stats_b.query_start_ns, stats_a.query_end_ns);
  EXPECT_GT(stats_b.admission_wait_ns, 0);
}

/// A waiter whose class is full does not hold back a later waiter of
/// another class: the later one is admitted (and finishes) first.
TEST(EngineTest, FullClassDoesNotBlockOtherClasses) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 1000, 8, Layout::kRowStore, 1024);

  EngineConfig engine_config;
  engine_config.num_workers = 2;
  engine_config.admission_classes.push_back(AdmissionClass{"solo", 1, 1.0});
  Engine engine(engine_config);

  ExecConfig config;
  Gate gate;
  auto gated_plan = MakeGatedPlan(&storage, &gate);
  auto held_plan = MakeSelectAggPlan(&storage, *input, 0.0);
  auto other_plan = MakeSelectAggPlan(&storage, *input, 0.0);
  Status status_a, status_b;
  ExecutionStats stats_a, stats_b;
  std::thread ta([&] {
    status_a =
        engine.ExecuteOrReject(gated_plan.get(), config, &stats_a, "solo");
  });
  while (engine.active_queries() != 1) std::this_thread::yield();
  std::thread tb([&] {
    status_b =
        engine.ExecuteOrReject(held_plan.get(), config, &stats_b, "solo");
  });
  while (engine.admission_waiters() != 1) std::this_thread::yield();

  // C arrives after B and runs to completion while B still waits on its
  // class (A holds the class slot on the closed gate).
  Status status_c;
  ExecutionStats stats_c;
  std::atomic<bool> c_done{false};
  std::thread tc([&] {
    status_c =
        engine.ExecuteOrReject(other_plan.get(), config, &stats_c, "default");
    c_done = true;
  });
  EXPECT_TRUE(SpinUntil([&] { return c_done.load(); }))
      << "a waiter of a full class held back another class";
  EXPECT_EQ(engine.admission_waiters(), 1);

  gate.Open();
  ta.join();
  tb.join();
  tc.join();
  ASSERT_TRUE(status_a.ok());
  ASSERT_TRUE(status_b.ok());
  ASSERT_TRUE(status_c.ok());
  EXPECT_LT(stats_c.query_id, stats_b.query_id);
  EXPECT_GE(stats_b.query_start_ns, stats_a.query_end_ns);
}

TEST(EngineTest, UnknownClassIsNotFound) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 1000, 8, Layout::kRowStore, 1024);
  EngineConfig engine_config;
  engine_config.num_workers = 1;
  Engine engine(engine_config);

  auto plan = MakeSelectAggPlan(&storage, *input, 0.0);
  ExecutionStats stats;
  const Status status =
      engine.ExecuteOrReject(plan.get(), ExecConfig{}, &stats, "nosuch");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.admission_waiters(), 0);
  EXPECT_EQ(engine.queries_executed(), 0u);
  EXPECT_TRUE(engine.HasAdmissionClass("default"));
  EXPECT_FALSE(engine.HasAdmissionClass("nosuch"));
}

/// A named class's memory share becomes the session's per-query budget on
/// a budgeted engine; a query naming no class keeps its own ExecConfig.
TEST(EngineTest, ClassMemoryShareScalesSessionBudget) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 1000, 8, Layout::kRowStore, 1024);
  EngineConfig engine_config;
  engine_config.num_workers = 1;
  engine_config.memory_budget_bytes = int64_t{1} << 30;
  engine_config.admission_classes.push_back(AdmissionClass{"half", 0, 0.5});
  Engine engine(engine_config);

  const auto summary = [&](std::string_view cls) {
    auto plan = MakeSelectAggPlan(&storage, *input, 0.0);
    ExecutionStats stats;
    EXPECT_TRUE(
        engine.ExecuteOrReject(plan.get(), ExecConfig{}, &stats, cls).ok());
    return stats.config_summary;
  };
  EXPECT_NE(summary("half").find("budget=536870912B"), std::string::npos);
  EXPECT_NE(summary("default").find("budget=1073741824B"), std::string::npos);
  EXPECT_EQ(summary("").find("budget="), std::string::npos);
}

TEST(EngineTest, ConcurrentQueriesShareOneAdaptivePolicy) {
  // One AdaptiveUotPolicy instance serving every concurrent session of the
  // engine: per-(query, edge) state must not bleed between queries, and
  // results must match the serial run. Runs under -fsanitize=thread in CI.
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 8000, 16, Layout::kRowStore, 2048);

  std::string expected;
  {
    ExecConfig serial;
    serial.uot = UotPolicy::LowUot(1);
    auto plan = MakeSelectAggPlan(&storage, *input, 100.0);
    QueryExecutor::Execute(plan.get(), serial);
    expected = CanonicalRows(*plan->result_table());
  }
  ASSERT_FALSE(expected.empty());

  EngineConfig engine_config;
  engine_config.num_workers = 4;
  Engine engine(engine_config);

  auto adaptive = std::make_shared<AdaptiveUotPolicy>();
  ExecConfig config;
  config.uot_policy = adaptive;
  config.memory_budget_bytes = 1;  // constant pressure: adaptation traffic

  constexpr int kQueries = 6;
  std::vector<std::unique_ptr<QueryPlan>> plans;
  for (int i = 0; i < kQueries; ++i) {
    plans.push_back(MakeSelectAggPlan(&storage, *input, 100.0));
  }
  StartGate gate(kQueries);
  std::vector<std::thread> threads;
  for (int i = 0; i < kQueries; ++i) {
    threads.emplace_back([&, i] {
      gate.ArriveAndWait();
      engine.Execute(plans[static_cast<size_t>(i)].get(), config);
    });
  }
  for (auto& t : threads) t.join();

  for (const auto& plan : plans) {
    EXPECT_EQ(CanonicalRows(*plan->result_table()), expected);
  }
  // Every query narrowed its edge independently under the shared policy.
  EXPECT_GE(adaptive->adaptations(), static_cast<uint64_t>(kQueries));
  EXPECT_EQ(engine.queries_executed(), static_cast<uint64_t>(kQueries));
}

TEST(EngineTest, BackgroundSamplerRecordsEngineSeries) {
  // The engine's background sampler is the one time-series of the
  // process-level registry. It samples on its own thread while a query
  // runs and once more when the engine stops. Runs under
  // -fsanitize=thread in CI.
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 2000, 8, Layout::kRowStore, 1024);

  EngineConfig engine_config;
  engine_config.num_workers = 2;
  engine_config.sampler_interval_ms = 1;
  engine_config.sampler_capacity = 64;
  Engine engine(engine_config);
  ASSERT_NE(engine.sampler(), nullptr);

  ExecConfig config;
  config.uot = UotPolicy::LowUot(1);
  auto plan = MakeSelectAggPlan(&storage, *input, 50.0);
  engine.Execute(plan.get(), config);
  // At least one background sample before the stop; Shutdown adds the
  // final one.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.sampler()->total_samples() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.Shutdown();
  EXPECT_FALSE(engine.sampler()->running());

  const std::vector<obs::MetricsSample> ring = engine.sampler()->Snapshot();
  ASSERT_GE(ring.size(), 2u);
  for (const obs::MetricsSample& sample : ring) {
    const std::map<std::string, int64_t> values(sample.values.begin(),
                                                sample.values.end());
    EXPECT_EQ(values.count("counter.engine.queries_executed"), 1u);
    EXPECT_EQ(values.count("gauge.engine.inflight_queries"), 1u);
  }
  const std::map<std::string, int64_t> last(ring.back().values.begin(),
                                            ring.back().values.end());
  EXPECT_EQ(last.at("counter.engine.queries_executed"), 1);
  EXPECT_EQ(last.at("gauge.engine.inflight_queries"), 0);
}

}  // namespace
}  // namespace uot

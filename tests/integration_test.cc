#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baseline/materializing_engine.h"
#include "exec/query_executor.h"
#include "model/memory_model.h"
#include "operators/aggregate_operator.h"
#include "operators/select_operator.h"
#include "plan/plan_builder.h"
#include "test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace uot {
namespace {

using testing::MakeKvTable;

/// End-to-end: the measured hash-table footprint of a real build matches
/// the Section VI-B model formula.
TEST(IntegrationTest, HashTableFootprintMatchesModel) {
  StorageManager storage;
  auto build_table = MakeKvTable(&storage, "build", 10000, 10000,
                                 Layout::kRowStore, 64 * 1024);
  MaterializingEngine engine(&storage);
  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0};
  spec.build_payload = {1};
  spec.probe_keys = {0};
  spec.probe_out = {0};
  spec.load_factor = 0.75;
  auto probe_table = MakeKvTable(&storage, "probe", 10, 10);
  storage.tracker().ResetPeaks();
  auto out = engine.HashJoin(*probe_table, *build_table, spec);

  const int64_t measured = storage.tracker().Peak(MemoryCategory::kHashTable);
  // Model: (M/w)*(c/f) with w = 12-byte tuples, c = 16-byte slots
  // (8B key + 8B payload after alignment) + 1B tag.
  const double model = MemoryModel::HashTableBytes(
      10000.0 * 12, 12.0, 17.0, 0.75);
  EXPECT_GT(measured, model * 0.5);
  EXPECT_LT(measured, model * 2.5);  // power-of-two slot rounding
  // The tracker holds exactly the bytes of the layout the footprint rule
  // picked: 10000 unique keys over a 10000-key range go dense.
  const MemoryModel::JoinTableFootprint exact = MemoryModel::JoinTableBytes(
      10000, /*key_range=*/10000, /*payload_bytes=*/8, /*slot_bytes=*/16,
      0.75);
  EXPECT_TRUE(exact.dense);
  EXPECT_EQ(measured, static_cast<int64_t>(exact.bytes));
  (void)out;
}

/// Runs sum(v) grouped by k over `input` on `workers` workers, straight
/// over the base table (`leaf`) or behind a select, and returns the stats.
ExecutionStats RunGroupSum(StorageManager* storage, const Table& input,
                           bool leaf, int workers, int* agg_op) {
  PlanBuilderConfig config;
  config.block_bytes = 16 * 1024;
  PlanBuilder builder(storage, config);
  PlanBuilder::Src in = PlanBuilder::Base(input);
  if (!leaf) {
    in = builder.Select("sel", in, std::make_unique<TruePredicate>(),
                        Projection::Identity(input.schema(), {0, 1}));
  }
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
  PlanBuilder::Src agg = builder.Aggregate("agg", in, {0}, std::move(aggs));
  std::unique_ptr<QueryPlan> plan = builder.Finish(agg);
  ExecConfig exec;
  exec.num_workers = workers;
  exec.uot = UotPolicy::LowUot(1);
  *agg_op = agg.op;
  return QueryExecutor::Execute(plan.get(), exec);
}

/// The aggregation bytes the tracker peaks at are exactly the footprint
/// MemoryModel::AggregationBytes gives the chosen layout: one array per
/// worker that ran a work order (dense), or every result partition's group
/// table at its grown capacity (hash). Both are released by the query.
TEST(IntegrationTest, AggregationFootprintMatchesModel) {
  constexpr uint64_t kRows = 40000;
  constexpr int32_t kKeys = 1000;
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", kRows, kKeys, Layout::kRowStore,
                           16 * 1024);
  constexpr uint64_t kStateBytes = 24;  // row count + (sum, comp)
  const MemoryModel::AggregationFootprint dense =
      MemoryModel::AggregationBytes(kRows, kKeys, 4, kStateBytes);
  ASSERT_TRUE(dense.dense);
  ASSERT_EQ(dense.bytes, kKeys * kStateBytes);
  const int agg_index = static_cast<int>(MemoryCategory::kAggregation);
  for (const int workers : {1, 4}) {
    int agg_op = -1;
    const ExecutionStats stats =
        RunGroupSum(&storage, *input, /*leaf=*/true, workers, &agg_op);
    std::set<int> ran;
    for (const WorkOrderRecord& r : stats.records) {
      if (r.op == agg_op) ran.insert(r.worker);
    }
    EXPECT_EQ(stats.peak_bytes[agg_index],
              static_cast<int64_t>(ran.size() * dense.bytes))
        << "workers " << workers;
    EXPECT_EQ(storage.tracker().Current(MemoryCategory::kAggregation), 0);
  }

  // Behind a select the input is streamed: hash layout. Each partition
  // holding n groups grew to the smallest power-of-two slot array of at
  // least max(64, 2n) slots, which admits half as many groups.
  std::map<uint64_t, uint64_t> per_partition;
  for (int32_t k = 0; k < kKeys; ++k) {
    const GroupKey key{static_cast<uint64_t>(static_cast<int64_t>(k)), 0, 0};
    ++per_partition[GroupTable::Hash(key) >>
                    (64 - AggregateOperator::kPartitionBits)];
  }
  int64_t expected = 0;
  for (const auto& [partition, groups] : per_partition) {
    uint64_t slots = 64;
    while (slots < 2 * groups) slots <<= 1;
    const MemoryModel::AggregationFootprint hash =
        MemoryModel::AggregationBytes(slots / 2, 0, 1, kStateBytes);
    EXPECT_FALSE(hash.dense);
    expected += static_cast<int64_t>(hash.bytes);
  }
  for (const int workers : {1, 4}) {
    int agg_op = -1;
    const ExecutionStats stats =
        RunGroupSum(&storage, *input, /*leaf=*/false, workers, &agg_op);
    EXPECT_EQ(stats.peak_bytes[agg_index], expected) << "workers " << workers;
    EXPECT_EQ(storage.tracker().Current(MemoryCategory::kAggregation), 0);
  }

  // A composite key over the base table: an INT32 spanning 100 values and
  // a CHAR(1) spanning 'a'..'e' index 500 dense groups.
  const Schema schema(
      {{"k", Type::Int32()}, {"c", Type::Char(1)}, {"v", Type::Double()}});
  Table pairs("pairs", schema, Layout::kColumnStore, 16 * 1024, &storage,
              MemoryCategory::kBaseTable);
  for (uint64_t i = 0; i < kRows; ++i) {
    pairs.AppendValues({TypedValue::Int32(static_cast<int32_t>(i % 100)),
                        TypedValue::Char(std::string(1, "abcde"[i % 7 % 5])),
                        TypedValue::Double(static_cast<double>(i))});
  }
  const MemoryModel::AggregationFootprint composite =
      MemoryModel::AggregationBytes(kRows, 100 * 5, 4, kStateBytes);
  ASSERT_TRUE(composite.dense);
  for (const int workers : {1, 4}) {
    const int64_t baseline = storage.tracker().TotalCurrent();
    PlanBuilderConfig config;
    config.block_bytes = 16 * 1024;
    PlanBuilder builder(&storage, config);
    std::vector<AggSpec> aggs;
    aggs.push_back({AggFn::kSum, Col(2, Type::Double()), "sum"});
    PlanBuilder::Src agg = builder.Aggregate("agg", PlanBuilder::Base(pairs),
                                             {0, 1}, std::move(aggs));
    std::unique_ptr<QueryPlan> plan = builder.Finish(agg);
    ExecConfig exec;
    exec.num_workers = workers;
    exec.uot = UotPolicy::LowUot(1);
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    EXPECT_TRUE(
        dynamic_cast<const AggregateOperator&>(*plan->op(agg.op)).dense());
    EXPECT_EQ(plan->result_table()->NumRows(), 500u);
    std::set<int> ran;
    for (const WorkOrderRecord& r : stats.records) {
      if (r.op == agg.op) ran.insert(r.worker);
    }
    EXPECT_EQ(stats.peak_bytes[agg_index],
              static_cast<int64_t>(ran.size() * composite.bytes))
        << "workers " << workers;
    EXPECT_EQ(storage.tracker().Current(MemoryCategory::kAggregation), 0);
    plan.reset();
    EXPECT_EQ(storage.tracker().TotalCurrent(), baseline);
  }
}

/// A sort charges its row buffer and order array while it runs and
/// releases them after: TPC-H Q1 and Q3 end at the tracker's baseline.
TEST(IntegrationTest, SortBuffersReturnToBaseline) {
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = 0.01;
  db.Generate(config);
  const int64_t baseline = storage.tracker().TotalCurrent();
  ExecConfig exec;
  exec.num_workers = 4;
  for (const int query : {1, 3}) {
    auto plan = BuildTpchPlan(query, db, TpchPlanConfig{});
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    EXPECT_GT(stats.peak_bytes[static_cast<int>(MemoryCategory::kOther)], 0)
        << "Q" << query;
    EXPECT_EQ(storage.tracker().Current(MemoryCategory::kOther), 0)
        << "Q" << query;
    plan.reset();
    EXPECT_EQ(storage.tracker().TotalCurrent(), baseline) << "Q" << query;
  }
}

/// After TPC-H Q1 (dense, two CHAR keys), Q17 (dense) and Q18 (hash, one
/// group per order) every aggregation byte is released.
TEST(IntegrationTest, AggregationMemoryReturnsToBaseline) {
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = 0.01;
  db.Generate(config);
  ExecConfig exec;
  exec.num_workers = 4;
  exec.uot = UotPolicy::LowUot(1);
  for (const int query : {1, 17, 18}) {
    auto plan = BuildTpchPlan(query, db, TpchPlanConfig{});
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    EXPECT_GT(stats.peak_bytes[static_cast<int>(MemoryCategory::kAggregation)],
              0)
        << "Q" << query;
    EXPECT_EQ(storage.tracker().Current(MemoryCategory::kAggregation), 0)
        << "Q" << query;
  }
}

/// Table II end-to-end: the low-UoT strategy's overhead is the co-resident
/// hash tables; the high-UoT strategy's is the materialized select output.
TEST(IntegrationTest, MemoryFootprintTradeoffIsObservable) {
  StorageManager storage;
  // Large selective select output vs small hash table: high UoT pays for
  // the intermediate table.
  auto probe_table = MakeKvTable(&storage, "probe", 50000, 100,
                                 Layout::kRowStore, 16 * 1024);
  auto build_table = MakeKvTable(&storage, "build", 100, 100,
                                 Layout::kRowStore, 16 * 1024);

  QueryPlan plan(&storage);
  auto build = std::make_unique<BuildHashOperator>(
      "build", std::vector<int>{0}, std::vector<int>{1}, 0.75,
      &storage.tracker());
  build->InitHashTable(build_table.get()->schema());
  build->AttachBaseTable(build_table.get());
  BuildHashOperator* build_raw = build.get();
  const int build_op = plan.AddOperator(std::move(build));

  auto proj = Projection::Identity(probe_table->schema(), {0, 1});
  Schema sel_schema = proj->output_schema();
  Table* sel_out = plan.CreateTempTable("sel.out", sel_schema,
                                        Layout::kRowStore, 16 * 1024);
  InsertDestination* sel_dest = plan.CreateDestination(sel_out);
  auto select = std::make_unique<SelectOperator>(
      "select", std::make_unique<TruePredicate>(), std::move(proj), sel_dest);
  select->AttachBaseTable(probe_table.get());
  const int select_op = plan.AddOperator(std::move(select));
  plan.RegisterOutput(select_op, sel_dest);

  Schema probe_schema = ProbeHashOperator::OutputSchema(
      sel_schema, {0}, build_table->schema(), {1}, JoinKind::kInner);
  Table* probe_out = plan.CreateTempTable("probe.out", probe_schema,
                                          Layout::kRowStore, 16 * 1024);
  InsertDestination* probe_dest = plan.CreateDestination(probe_out);
  auto probe = std::make_unique<ProbeHashOperator>(
      "probe", build_raw, std::vector<int>{0}, std::vector<int>{0},
      JoinKind::kInner, std::vector<ResidualCondition>{}, probe_dest);
  const int probe_op = plan.AddOperator(std::move(probe));
  plan.RegisterOutput(probe_op, probe_dest);
  plan.AddStreamingEdge(select_op, probe_op);
  plan.AddBlockingEdge(build_op, probe_op);
  plan.SetResultTable(probe_out);

  ExecConfig exec;
  exec.num_workers = 2;
  exec.uot = UotPolicy::HighUot();
  const ExecutionStats stats = QueryExecutor::Execute(&plan, exec);

  // The materialized intermediate dominates the hash table by far
  // (Table II's high-UoT column: overhead = |sigma(R)|).
  EXPECT_GT(stats.PeakTemporaryBytes(), 4 * stats.PeakHashTableBytes());
  // ~50000 rows * 12 bytes of select output had to coexist.
  EXPECT_GT(stats.PeakTemporaryBytes(), 50000 * 12 / 2);
}

/// Table II's other column: with a low UoT, consumed intermediate blocks
/// are transient, so the peak intermediate footprint stays within a memory
/// budget, while the high-UoT strategy materializes the whole intermediate.
/// Both bounds hold however the session is scheduled: the budget admits a
/// producer only while tracked memory is within it (or nothing else runs),
/// and one select work order over one input block writes at most one new
/// output block.
TEST(IntegrationTest, LowUotIntermediateFootprintIsTransient) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 50000, 100,
                                 Layout::kRowStore, 16 * 1024);
  auto build_table = MakeKvTable(&storage, "build", 100, 100,
                                 Layout::kRowStore, 16 * 1024);
  const int64_t block_bytes = static_cast<int64_t>(
      probe_table->blocks().front()->allocated_bytes());
  int64_t peak_temp[2];
  int idx = 0;
  for (const bool whole_table : {false, true}) {
    QueryPlan plan(&storage);
    auto build = std::make_unique<BuildHashOperator>(
        "build", std::vector<int>{0}, std::vector<int>{1}, 0.75,
        &storage.tracker());
    build->InitHashTable(build_table->schema());
    build->AttachBaseTable(build_table.get());
    BuildHashOperator* build_raw = build.get();
    const int build_op = plan.AddOperator(std::move(build));

    auto proj = Projection::Identity(probe_table->schema(), {0, 1});
    Schema sel_schema = proj->output_schema();
    Table* sel_out = plan.CreateTempTable("sel.out", sel_schema,
                                          Layout::kRowStore, 16 * 1024);
    InsertDestination* sel_dest = plan.CreateDestination(sel_out);
    auto select = std::make_unique<SelectOperator>(
        "select", std::make_unique<TruePredicate>(), std::move(proj),
        sel_dest);
    select->AttachBaseTable(probe_table.get());
    const int select_op = plan.AddOperator(std::move(select));
    plan.RegisterOutput(select_op, sel_dest);

    std::vector<AggSpec> aggs;
    aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
    Schema agg_schema = AggregateOperator::OutputSchema(sel_schema, {}, aggs);
    Table* agg_out =
        plan.CreateTempTable("agg.out", agg_schema, Layout::kRowStore, 4096);
    InsertDestination* agg_dest = plan.CreateDestination(agg_out);
    auto agg = std::make_unique<AggregateOperator>(
        "agg", sel_schema, std::vector<int>{}, std::move(aggs), nullptr,
        agg_dest, &plan.storage()->tracker());
    const int agg_op = plan.AddOperator(std::move(agg));
    plan.RegisterOutput(agg_op, agg_dest);
    plan.AddStreamingEdge(select_op, agg_op);
    (void)build_op;
    (void)build_raw;
    plan.SetResultTable(agg_out);

    ExecConfig exec;
    exec.num_workers = 1;
    exec.uot = whole_table ? UotPolicy::HighUot() : UotPolicy::LowUot(1);
    // The low-UoT arm is paced by a budget of one block above what is
    // tracked before the query (the base tables).
    if (!whole_table) {
      exec.memory_budget_bytes = storage.tracker().TotalCurrent() + block_bytes;
    }
    const ExecutionStats stats = QueryExecutor::Execute(&plan, exec);
    peak_temp[idx++] = stats.PeakTemporaryBytes();
    // Results identical either way.
    EXPECT_DOUBLE_EQ(agg_out->GetValue(0, 0).AsDouble(),
                     50000.0 * 49999.0 / 2.0);
  }
  // Low UoT: the budget's block plus the one block the single running
  // work order may add. Whole table: every select output row is resident
  // at once (~600KB here).
  EXPECT_LE(peak_temp[0], 2 * block_bytes);
  EXPECT_GE(peak_temp[1],
            static_cast<int64_t>(50000 * probe_table->schema().row_width()));
}

/// The memory model's selectivity * projectivity prediction matches the
/// measured intermediate-table bytes for a real TPC-H selection.
TEST(IntegrationTest, SelectionReductionPredictsIntermediateSize) {
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = 0.004;
  config.block_bytes = 32 * 1024;
  db.Generate(config);

  SelectionSpec spec = TpchSelectionSpec(7, "lineitem");
  MaterializingEngine engine(&storage);
  const Schema& l = db.lineitem().schema();
  std::vector<std::unique_ptr<Scalar>> exprs;
  exprs.push_back(Col(tpch::kLOrderkey, Type::Int64()));
  exprs.push_back(Col(tpch::kLSuppkey, Type::Int32()));
  exprs.push_back(Mul(Col(tpch::kLExtendedprice, Type::Double()),
                      Sub(LitDouble(1.0),
                          Col(tpch::kLDiscount, Type::Double()))));
  exprs.push_back(Col(tpch::kLShipdate, Type::Date()));
  Projection proj(std::move(exprs),
                  {"l_orderkey", "l_suppkey", "volume", "l_shipdate"});
  auto out = engine.Select(db.lineitem(), *spec.predicate, proj);

  const double actual_bytes =
      static_cast<double>(out->NumRows()) * proj.output_schema().row_width();
  const double predicted =
      static_cast<double>(db.lineitem().NumRows()) * l.row_width() *
      MemoryModel::Selectivity(out->NumRows(), db.lineitem().NumRows()) *
      MemoryModel::Projectivity(proj.output_schema().row_width(),
                                l.row_width());
  EXPECT_NEAR(actual_bytes, predicted, predicted * 0.01);
}

/// Execution stats expose the Fig. 3 signal: dominant-operator share.
TEST(IntegrationTest, DominantOperatorShareComputable) {
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = 0.004;
  db.Generate(config);

  auto plan = BuildTpchPlan(6, db, TpchPlanConfig{});
  ExecConfig exec;
  exec.num_workers = 2;
  exec.uot = UotPolicy::HighUot();
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
  double total = 0, top = 0;
  for (const OperatorStats& os : stats.operators) {
    total += os.total_task_ms();
    top = std::max(top, os.total_task_ms());
  }
  ASSERT_GT(total, 0.0);
  // Q6 is a single leaf aggregation: dominant share ~ 100%.
  EXPECT_GT(top / total, 0.9);
}

/// A query executed under every UoT policy produces one canonical result
/// even when partial blocks, concurrency caps and tiny blocks interact.
TEST(IntegrationTest, StressManyBlocksManyConfigs) {
  StorageManager storage;
  auto probe_table = MakeKvTable(&storage, "probe", 20000, 64,
                                 Layout::kColumnStore, 1024);
  auto build_table = MakeKvTable(&storage, "build", 640, 64,
                                 Layout::kColumnStore, 1024);
  std::string expected;
  for (uint64_t uot : {UINT64_C(1), UINT64_C(3), UINT64_C(16),
                       UotPolicy::kWholeTable}) {
    for (int workers : {1, 3}) {
      MaterializingEngine engine(&storage);
      QueryPlan plan(&storage);
      auto build = std::make_unique<BuildHashOperator>(
          "build", std::vector<int>{0}, std::vector<int>{1}, 0.6,
          &storage.tracker());
      build->InitHashTable(build_table->schema());
      build->AttachBaseTable(build_table.get());
      BuildHashOperator* build_raw = build.get();
      const int build_op = plan.AddOperator(std::move(build));

      auto proj = Projection::Identity(probe_table->schema(), {0, 1});
      Schema sel_schema = proj->output_schema();
      Table* sel_out = plan.CreateTempTable("sel.out", sel_schema,
                                            Layout::kRowStore, 512);
      InsertDestination* sel_dest = plan.CreateDestination(sel_out);
      auto select = std::make_unique<SelectOperator>(
          "select",
          Cmp(CompareOp::kLt, Col(1, Type::Double()), LitDouble(17777.0)),
          std::move(proj), sel_dest);
      select->AttachBaseTable(probe_table.get());
      const int select_op = plan.AddOperator(std::move(select));
      plan.RegisterOutput(select_op, sel_dest);

      Schema probe_schema = ProbeHashOperator::OutputSchema(
          sel_schema, {0, 1}, build_table->schema(), {1}, JoinKind::kInner);
      Table* probe_out = plan.CreateTempTable("probe.out", probe_schema,
                                              Layout::kRowStore, 512);
      InsertDestination* probe_dest = plan.CreateDestination(probe_out);
      auto probe = std::make_unique<ProbeHashOperator>(
          "probe", build_raw, std::vector<int>{0}, std::vector<int>{0, 1},
          JoinKind::kInner, std::vector<ResidualCondition>{}, probe_dest);
      const int probe_op = plan.AddOperator(std::move(probe));
      plan.RegisterOutput(probe_op, probe_dest);
      plan.AddStreamingEdge(select_op, probe_op);
      plan.AddBlockingEdge(build_op, probe_op);
      plan.SetResultTable(probe_out);

      ExecConfig exec;
      exec.num_workers = workers;
      exec.uot = uot == UotPolicy::kWholeTable ? UotPolicy::HighUot()
                                               : UotPolicy::LowUot(uot);
      QueryExecutor::Execute(&plan, exec);
      const std::string got = CanonicalRows(*plan.result_table());
      if (expected.empty()) {
        expected = got;
        EXPECT_FALSE(expected.empty());
      } else {
        EXPECT_EQ(got, expected)
            << "uot=" << uot << " workers=" << workers;
      }
    }
  }
}

}  // namespace
}  // namespace uot

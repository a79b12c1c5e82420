#include <gtest/gtest.h>

#include "baseline/materializing_engine.h"
#include "exec/query_executor.h"
#include "operators/key_util.h"
#include "operators/numeric_util.h"
#include "operators/nested_loops_join_operator.h"
#include "operators/select_operator.h"
#include "operators/sort_merge_join_operator.h"
#include "storage/storage_manager.h"
#include "test_util.h"
#include "types/row_builder.h"

namespace uot {
namespace {

using testing::MakeKvTable;

class OperatorsTest : public ::testing::Test {
 protected:
  StorageManager storage_;
  MaterializingEngine engine_{&storage_};
};

TEST_F(OperatorsTest, SelectFiltersAndProjects) {
  auto input = MakeKvTable(&storage_, "in", 100, 10);
  const Schema& s = input->schema();
  auto pred = Cmp(CompareOp::kEq, Col(0, s.column(0).type),
                  Lit(TypedValue::Int32(3), Type::Int32()));
  std::vector<std::unique_ptr<Scalar>> exprs;
  exprs.push_back(Col(1, Type::Double()));
  Projection proj(std::move(exprs), {"v"});
  auto out = engine_.Select(*input, *pred, proj);
  ASSERT_EQ(out->NumRows(), 10u);  // k == 3 for i in {3, 13, ..., 93}
  // Values preserved: v in {3, 13, ..., 93}.
  double sum = 0;
  for (uint64_t r = 0; r < out->NumRows(); ++r) {
    sum += out->GetValue(r, 0).AsDouble();
  }
  EXPECT_DOUBLE_EQ(sum, 480.0);
}

TEST_F(OperatorsTest, SelectEmptyResult) {
  auto input = MakeKvTable(&storage_, "in", 50, 5);
  auto pred = Cmp(CompareOp::kGt, Col(1, Type::Double()), LitDouble(1e9));
  auto proj = Projection::Identity(input->schema(), {0, 1});
  auto out = engine_.Select(*input, *pred, *proj);
  EXPECT_EQ(out->NumRows(), 0u);
}

TEST_F(OperatorsTest, InnerHashJoinMatchesExpectedCardinality) {
  // probe: 100 rows with k = i%10; build: 10 rows with k = i%10 (one per k).
  auto probe = MakeKvTable(&storage_, "probe", 100, 10);
  auto build = MakeKvTable(&storage_, "build", 10, 10);
  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0};
  spec.build_payload = {1};
  spec.probe_keys = {0};
  spec.probe_out = {0, 1};
  auto out = engine_.HashJoin(*probe, *build, spec);
  EXPECT_EQ(out->NumRows(), 100u);
  EXPECT_EQ(out->schema().num_columns(), 3);
}

TEST_F(OperatorsTest, InnerHashJoinDuplicateBuildKeys) {
  auto probe = MakeKvTable(&storage_, "probe", 10, 10);   // keys 0..9 once
  auto build = MakeKvTable(&storage_, "build", 30, 10);   // each key 3x
  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0};
  spec.build_payload = {1};
  spec.probe_keys = {0};
  spec.probe_out = {0};
  auto out = engine_.HashJoin(*probe, *build, spec);
  EXPECT_EQ(out->NumRows(), 30u);
}

TEST_F(OperatorsTest, SemiJoinEmitsProbeRowOnce) {
  auto probe = MakeKvTable(&storage_, "probe", 20, 20);  // keys 0..19
  auto build = MakeKvTable(&storage_, "build", 30, 5);   // keys 0..4, 6 each
  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0};
  spec.build_payload = {};
  spec.probe_keys = {0};
  spec.probe_out = {0, 1};
  spec.kind = JoinKind::kLeftSemi;
  auto out = engine_.HashJoin(*probe, *build, spec);
  EXPECT_EQ(out->NumRows(), 5u);  // despite 6 matches each
  EXPECT_EQ(out->schema().num_columns(), 2);  // no payload columns
}

TEST_F(OperatorsTest, AntiJoinEmitsNonMatching) {
  auto probe = MakeKvTable(&storage_, "probe", 20, 20);
  auto build = MakeKvTable(&storage_, "build", 30, 5);
  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0};
  spec.build_payload = {};
  spec.probe_keys = {0};
  spec.probe_out = {0};
  spec.kind = JoinKind::kLeftAnti;
  auto out = engine_.HashJoin(*probe, *build, spec);
  EXPECT_EQ(out->NumRows(), 15u);  // keys 5..19
}

TEST_F(OperatorsTest, ResidualConditionFiltersMatches) {
  // Join k==k but require payload v != probe v. Build has v == k for
  // keys 0..9; probe rows 0..9 have v == i == k, rows 10..19 have v != k.
  auto probe = MakeKvTable(&storage_, "probe", 20, 10);
  Schema bs({{"k", Type::Int32()}, {"v", Type::Int32()}});
  auto build = std::make_unique<Table>("build", bs, Layout::kRowStore, 4096,
                                       &storage_, MemoryCategory::kBaseTable);
  RowBuilder row(&bs);
  for (int i = 0; i < 10; ++i) {
    row.SetInt32(0, i);
    row.SetInt32(1, i);
    build->AppendRow(row.data());
  }
  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0};
  spec.build_payload = {1};
  spec.probe_keys = {0};
  spec.probe_out = {0};
  // probe col 1 is DOUBLE; residuals compare integral columns, so compare
  // against probe col 0 (k) instead: payload v != probe k never holds for
  // build rows (v == k), so inner join with this residual yields nothing.
  spec.residuals = {ResidualCondition{0, 0, CompareOp::kNe}};
  auto out = engine_.HashJoin(*probe, *build, spec);
  EXPECT_EQ(out->NumRows(), 0u);

  spec.residuals = {ResidualCondition{0, 0, CompareOp::kEq}};
  auto out2 = engine_.HashJoin(*probe, *build, spec);
  EXPECT_EQ(out2->NumRows(), 20u);
}

TEST_F(OperatorsTest, ScaledResidualComparesDoubles) {
  // probe (k, v=i) vs build (k, limit=10.0): keep rows with v < 0.5*limit.
  auto probe = MakeKvTable(&storage_, "probe", 20, 20);  // v = 0..19
  Schema bs({{"k", Type::Int32()}, {"limit", Type::Double()}});
  auto build = std::make_unique<Table>("build", bs, Layout::kRowStore, 4096,
                                       &storage_, MemoryCategory::kBaseTable);
  RowBuilder row(&bs);
  for (int i = 0; i < 20; ++i) {
    row.SetInt32(0, i);
    row.SetDouble(1, 10.0);
    build->AppendRow(row.data());
  }
  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0};
  spec.build_payload = {1};
  spec.probe_keys = {0};
  spec.probe_out = {0, 1};
  spec.kind = JoinKind::kLeftSemi;
  spec.residuals = {ResidualCondition{1, 0, CompareOp::kLt, 0.5}};
  auto out = engine_.HashJoin(*probe, *build, spec);
  EXPECT_EQ(out->NumRows(), 5u);  // v in {0..4} < 5.0
  // Flipping the comparison keeps the complement.
  spec.residuals = {ResidualCondition{1, 0, CompareOp::kGe, 0.5}};
  auto complement = engine_.HashJoin(*probe, *build, spec);
  EXPECT_EQ(complement->NumRows(), 15u);
}

TEST_F(OperatorsTest, CompositeKeyJoin) {
  // Join on (a, b) pairs: build holds (i%4, i%3) for i in 0..11 (each pair
  // once); probe replays the same pairs twice.
  Schema s({{"a", Type::Int32()}, {"b", Type::Int32()}});
  auto make = [&](const char* name, int copies) {
    auto t = std::make_unique<Table>(name, s, Layout::kRowStore, 4096,
                                     &storage_, MemoryCategory::kBaseTable);
    RowBuilder row(&s);
    for (int c = 0; c < copies; ++c) {
      for (int i = 0; i < 12; ++i) {
        row.SetInt32(0, i % 4);
        row.SetInt32(1, i % 3);
        t->AppendRow(row.data());
      }
    }
    return t;
  };
  auto build = make("build", 1);
  auto probe = make("probe", 2);
  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0, 1};
  spec.build_payload = {};
  spec.probe_keys = {0, 1};
  spec.probe_out = {0, 1};
  auto out = engine_.HashJoin(*probe, *build, spec);
  EXPECT_EQ(out->NumRows(), 24u);  // each probe row matches exactly once
}

TEST_F(OperatorsTest, ScalarAggregateComputesAllFunctions) {
  auto input = MakeKvTable(&storage_, "in", 100, 10);  // v = 0..99
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
  aggs.push_back({AggFn::kMin, Col(1, Type::Double()), "min"});
  aggs.push_back({AggFn::kMax, Col(1, Type::Double()), "max"});
  aggs.push_back({AggFn::kAvg, Col(1, Type::Double()), "avg"});
  auto out = engine_.GroupAggregate(*input, {}, std::move(aggs), nullptr);
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsInt64(), 100);
  EXPECT_DOUBLE_EQ(out->GetValue(0, 1).AsDouble(), 4950.0);
  EXPECT_DOUBLE_EQ(out->GetValue(0, 2).AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(out->GetValue(0, 3).AsDouble(), 99.0);
  EXPECT_DOUBLE_EQ(out->GetValue(0, 4).AsDouble(), 49.5);
}

TEST_F(OperatorsTest, GroupedAggregate) {
  auto input = MakeKvTable(&storage_, "in", 100, 4);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
  auto out = engine_.GroupAggregate(*input, {0}, std::move(aggs), nullptr);
  ASSERT_EQ(out->NumRows(), 4u);
  int64_t total = 0;
  double sum = 0;
  for (uint64_t r = 0; r < 4; ++r) {
    total += out->GetValue(r, 1).AsInt64();
    sum += out->GetValue(r, 2).AsDouble();
  }
  EXPECT_EQ(total, 100);
  EXPECT_DOUBLE_EQ(sum, 4950.0);
}

TEST_F(OperatorsTest, AggregateWithFusedPredicate) {
  auto input = MakeKvTable(&storage_, "in", 100, 10);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  auto pred = Cmp(CompareOp::kLt, Col(1, Type::Double()), LitDouble(50.0));
  auto out =
      engine_.GroupAggregate(*input, {}, std::move(aggs), std::move(pred));
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsInt64(), 50);
}

TEST_F(OperatorsTest, ScalarAggregateOnEmptyInputYieldsZeroRow) {
  auto input = MakeKvTable(&storage_, "in", 0, 10);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  auto out = engine_.GroupAggregate(*input, {}, std::move(aggs), nullptr);
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsInt64(), 0);
}

TEST_F(OperatorsTest, ScalarMinMaxOnEmptyInputYieldZero) {
  // The zero row covers every function: MIN and MAX of nothing are 0 too,
  // not the +/-1e308 sentinels of an untouched state.
  auto input = MakeKvTable(&storage_, "in", 100, 10);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kMin, Col(1, Type::Double()), "min"});
  aggs.push_back({AggFn::kMax, Col(1, Type::Double()), "max"});
  aggs.push_back({AggFn::kAvg, Col(1, Type::Double()), "avg"});
  auto pred = Cmp(CompareOp::kGt, Col(1, Type::Double()), LitDouble(1000.0));
  auto out =
      engine_.GroupAggregate(*input, {}, std::move(aggs), std::move(pred));
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsDouble(), 0.0);
  EXPECT_EQ(out->GetValue(0, 1).AsDouble(), 0.0);
  EXPECT_EQ(out->GetValue(0, 2).AsDouble(), 0.0);
}

TEST_F(OperatorsTest, GroupedAggregateOnEmptyInputYieldsNoRows) {
  auto input = MakeKvTable(&storage_, "in", 0, 10);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  auto out = engine_.GroupAggregate(*input, {0}, std::move(aggs), nullptr);
  EXPECT_EQ(out->NumRows(), 0u);
}

TEST_F(OperatorsTest, TwoColumnGroupKeys) {
  Schema s({{"a", Type::Int32()}, {"b", Type::Char(2)}});
  auto input = std::make_unique<Table>("in", s, Layout::kRowStore, 4096,
                                       &storage_, MemoryCategory::kBaseTable);
  RowBuilder row(&s);
  const char* tags[] = {"x", "y"};
  for (int i = 0; i < 40; ++i) {
    row.SetInt32(0, i % 2);
    row.SetChar(1, tags[(i / 2) % 2]);
    input->AppendRow(row.data());
  }
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  auto out = engine_.GroupAggregate(*input, {0, 1}, std::move(aggs), nullptr);
  ASSERT_EQ(out->NumRows(), 4u);
  for (uint64_t r = 0; r < 4; ++r) {
    EXPECT_EQ(out->GetValue(r, 2).AsInt64(), 10);
  }
}

TEST_F(OperatorsTest, SortOrdersAndLimits) {
  auto input = MakeKvTable(&storage_, "in", 50, 7);
  auto desc = engine_.Sort(*input, {{1, false}}, 0);
  ASSERT_EQ(desc->NumRows(), 50u);
  EXPECT_DOUBLE_EQ(desc->GetValue(0, 1).AsDouble(), 49.0);
  EXPECT_DOUBLE_EQ(desc->GetValue(49, 1).AsDouble(), 0.0);

  auto top3 = engine_.Sort(*input, {{1, false}}, 3);
  ASSERT_EQ(top3->NumRows(), 3u);
  EXPECT_DOUBLE_EQ(top3->GetValue(2, 1).AsDouble(), 47.0);
}

TEST_F(OperatorsTest, SortMultiKey) {
  auto input = MakeKvTable(&storage_, "in", 20, 4);
  auto out = engine_.Sort(*input, {{0, true}, {1, false}}, 0);
  // Within each key group, v descending; groups ascending by k.
  EXPECT_EQ(out->GetValue(0, 0).AsInt32(), 0);
  EXPECT_DOUBLE_EQ(out->GetValue(0, 1).AsDouble(), 16.0);
  EXPECT_EQ(out->GetValue(19, 0).AsInt32(), 3);
  EXPECT_DOUBLE_EQ(out->GetValue(19, 1).AsDouble(), 3.0);
}

TEST_F(OperatorsTest, SortCharKeys) {
  Schema s({{"name", Type::Char(4)}});
  auto input = std::make_unique<Table>("in", s, Layout::kRowStore, 4096,
                                       &storage_, MemoryCategory::kBaseTable);
  for (const char* n : {"dd", "aa", "cc", "bb"}) {
    input->AppendValues({TypedValue::Char(n)});
  }
  auto out = engine_.Sort(*input, {{0, true}}, 0);
  EXPECT_EQ(out->GetValue(0, 0).AsChar(), "aa");
  EXPECT_EQ(out->GetValue(3, 0).AsChar(), "dd");
}

TEST_F(OperatorsTest, NestedLoopsJoinMatchesHashJoin) {
  auto probe = MakeKvTable(&storage_, "probe", 60, 12);
  auto build = MakeKvTable(&storage_, "build", 24, 8);

  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0};
  spec.build_payload = {1};
  spec.probe_keys = {0};
  spec.probe_out = {0, 1};
  auto hash_out = engine_.HashJoin(*probe, *build, spec);

  // Nested-loops reference (driven directly).
  Schema out_schema = NestedLoopsJoinOperator::OutputSchema(
      probe->schema(), {0, 1}, build->schema(), {1});
  Table nlj_out("nlj", out_schema, Layout::kRowStore, 1 << 16, &storage_,
                MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage_, &nlj_out, nullptr);
  NestedLoopsJoinOperator nlj("nlj", build.get(), {0}, {0}, {0, 1}, {1},
                              &dest);
  nlj.AttachBaseTable(probe.get());
  std::vector<std::unique_ptr<WorkOrder>> wos;
  while (!nlj.GenerateWorkOrders(&wos)) {
  }
  for (auto& wo : wos) wo->Execute();
  nlj.Finish();

  EXPECT_EQ(CanonicalRows(*hash_out), CanonicalRows(nlj_out));
  EXPECT_GT(nlj_out.NumRows(), 0u);
}

TEST_F(OperatorsTest, SortMergeJoinMatchesHashJoin) {
  auto left = MakeKvTable(&storage_, "left", 80, 16);
  auto right = MakeKvTable(&storage_, "right", 48, 12);

  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0};
  spec.build_payload = {1};
  spec.probe_keys = {0};
  spec.probe_out = {0, 1};
  auto hash_out = engine_.HashJoin(*left, *right, spec);

  Schema out_schema = SortMergeJoinOperator::OutputSchema(
      left->schema(), {0, 1}, right->schema(), {1});
  Table smj_out("smj", out_schema, Layout::kRowStore, 1 << 16, &storage_,
                MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage_, &smj_out, nullptr);
  SortMergeJoinOperator smj("smj", left->schema(), right->schema(), {0},
                            {0}, {0, 1}, {1}, &dest);
  smj.AttachLeftTable(left.get());
  smj.AttachRightTable(right.get());
  std::vector<std::unique_ptr<WorkOrder>> wos;
  while (!smj.GenerateWorkOrders(&wos)) {
  }
  for (auto& wo : wos) wo->Execute();
  smj.Finish();

  EXPECT_EQ(CanonicalRows(smj_out), CanonicalRows(*hash_out));
  EXPECT_GT(smj_out.NumRows(), 0u);
}

TEST_F(OperatorsTest, SortMergeJoinDuplicateRunsCrossProduct) {
  // left: keys {0,1} x3 each; right: keys {1,2} x2 each -> key 1 yields
  // 3*2 = 6 rows, keys 0/2 yield none.
  Schema s({{"k", Type::Int32()}, {"v", Type::Double()}});
  auto make = [&](const char* name, std::vector<int> keys, int copies) {
    auto t = std::make_unique<Table>(name, s, Layout::kRowStore, 4096,
                                     &storage_, MemoryCategory::kBaseTable);
    RowBuilder row(&s);
    for (int c = 0; c < copies; ++c) {
      for (int k : keys) {
        row.SetInt32(0, k);
        row.SetDouble(1, k * 10.0 + c);
        t->AppendRow(row.data());
      }
    }
    return t;
  };
  auto left = make("l", {0, 1}, 3);
  auto right = make("r", {1, 2}, 2);

  Schema out_schema = SortMergeJoinOperator::OutputSchema(
      left->schema(), {0}, right->schema(), {1});
  Table out("out", out_schema, Layout::kRowStore, 4096, &storage_,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage_, &out, nullptr);
  SortMergeJoinOperator smj("smj", left->schema(), right->schema(), {0},
                            {0}, {0}, {1}, &dest);
  smj.AttachLeftTable(left.get());
  smj.AttachRightTable(right.get());
  std::vector<std::unique_ptr<WorkOrder>> wos;
  while (!smj.GenerateWorkOrders(&wos)) {
  }
  for (auto& wo : wos) wo->Execute();
  smj.Finish();
  EXPECT_EQ(out.NumRows(), 6u);
}

TEST_F(OperatorsTest, SortMergeJoinEmptySide) {
  auto left = MakeKvTable(&storage_, "left", 20, 5);
  auto right = MakeKvTable(&storage_, "right", 0, 5);
  Schema out_schema = SortMergeJoinOperator::OutputSchema(
      left->schema(), {0}, right->schema(), {1});
  Table out("out", out_schema, Layout::kRowStore, 4096, &storage_,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage_, &out, nullptr);
  SortMergeJoinOperator smj("smj", left->schema(), right->schema(), {0},
                            {0}, {0}, {1}, &dest);
  smj.AttachLeftTable(left.get());
  smj.AttachRightTable(right.get());
  std::vector<std::unique_ptr<WorkOrder>> wos;
  while (!smj.GenerateWorkOrders(&wos)) {
  }
  for (auto& wo : wos) wo->Execute();
  smj.Finish();
  EXPECT_EQ(out.NumRows(), 0u);
}

TEST_F(OperatorsTest, ThreeColumnGroupKeys) {
  Schema s({{"a", Type::Int32()},
            {"b", Type::Char(2)},
            {"c", Type::Int32()},
            {"v", Type::Double()}});
  auto input = std::make_unique<Table>("in", s, Layout::kRowStore, 4096,
                                       &storage_, MemoryCategory::kBaseTable);
  RowBuilder row(&s);
  const char* tags[] = {"x", "y", "z"};
  for (int i = 0; i < 54; ++i) {
    row.SetInt32(0, i % 2);
    row.SetChar(1, tags[i % 3]);
    row.SetInt32(2, i % 3 == 0 ? 7 : 8);
    row.SetDouble(3, 1.0);
    input->AppendRow(row.data());
  }
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(3, Type::Double()), "sum"});
  auto out = engine_.GroupAggregate(*input, {0, 1, 2}, std::move(aggs),
                                    nullptr);
  // Groups: (i%2, i%3) pairs, with c derived from i%3: 2*3 = 6 groups.
  EXPECT_EQ(out->NumRows(), 6u);
  double total = 0;
  for (uint64_t r = 0; r < out->NumRows(); ++r) {
    total += out->GetValue(r, 3).AsDouble();
  }
  EXPECT_DOUBLE_EQ(total, 54.0);
}

/// Serializes every row of `t` in block/row order as raw packed bytes —
/// the strict comparator for join-knob parity: identical strings mean
/// byte-identical output in identical order.
std::string TableBytes(const Table& t) {
  std::string out;
  std::vector<std::byte> row(t.schema().row_width());
  for (const Block* b : t.blocks()) {
    for (uint32_t r = 0; r < b->num_rows(); ++r) {
      b->GetRow(r, row.data());
      out.append(reinterpret_cast<const char*>(row.data()), row.size());
    }
  }
  return out;
}

/// Runs `spec` tuple-at-a-time (batch 1, no prefetch) and under its own
/// join knobs (everything else identical) and asserts byte-identical
/// output. MaterializingEngine drives single-threaded, so build insert
/// order — and therefore probe chain order — is deterministic.
void ExpectKernelParity(StorageManager* storage, const Table& probe,
                        const Table& build,
                        const MaterializingEngine::JoinSpec& spec,
                        const char* label) {
  MaterializingEngine engine(storage);
  MaterializingEngine::JoinSpec one_row = spec;
  one_row.join.batch_size = 1;
  one_row.join.prefetch_distance = 0;
  auto reference_out = engine.HashJoin(probe, build, one_row);
  auto batched_out = engine.HashJoin(probe, build, spec);
  ASSERT_EQ(batched_out->NumRows(), reference_out->NumRows()) << label;
  EXPECT_EQ(TableBytes(*batched_out), TableBytes(*reference_out)) << label;
}

TEST_F(OperatorsTest, BatchedKernelParityInnerSemiAnti) {
  // Duplicate-heavy single-word keys across several probe blocks.
  auto probe = MakeKvTable(&storage_, "probe", 500, 40, Layout::kRowStore,
                           /*block_bytes=*/512);
  auto build = MakeKvTable(&storage_, "build", 120, 40);
  for (const JoinKind kind :
       {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    MaterializingEngine::JoinSpec spec;
    spec.build_keys = {0};
    spec.build_payload = kind == JoinKind::kInner ? std::vector<int>{1}
                                                  : std::vector<int>{};
    spec.probe_keys = {0};
    spec.probe_out = {0, 1};
    spec.kind = kind;
    ExpectKernelParity(&storage_, *probe, *build, spec, "kind");
  }
}

TEST_F(OperatorsTest, BatchedKernelParityBatchBoundaries) {
  // Probe row counts straddling the batch size, including a final partial
  // batch and tiny blocks (few rows per block), for several batch sizes
  // and prefetch distances (0 disables prefetch, below-threshold batches
  // resolve without prefetching internally).
  auto build = MakeKvTable(&storage_, "build", 60, 30);
  for (const int batch : {1, 8, 256}) {
    for (const uint64_t rows :
         {static_cast<uint64_t>(batch) - 1, static_cast<uint64_t>(batch),
          static_cast<uint64_t>(batch) + 1, static_cast<uint64_t>(3)}) {
      auto probe = MakeKvTable(&storage_, "probe", rows, 30,
                               Layout::kRowStore, /*block_bytes=*/256);
      for (const int dist : {0, 16}) {
        MaterializingEngine::JoinSpec spec;
        spec.build_keys = {0};
        spec.build_payload = {1};
        spec.probe_keys = {0};
        spec.probe_out = {0, 1};
        spec.join.batch_size = batch;
        spec.join.prefetch_distance = dist;
        ExpectKernelParity(&storage_, *probe, *build, spec, "boundary");
      }
    }
  }
}

TEST_F(OperatorsTest, BatchedKernelParityCompositeKeysAndResiduals) {
  // Two-word composite keys with duplicates plus a scaled double residual.
  Schema ps({{"a", Type::Int32()}, {"b", Type::Int32()},
             {"v", Type::Double()}});
  auto make = [&](const char* name, int rows) {
    auto t = std::make_unique<Table>(name, ps, Layout::kRowStore, 512,
                                     &storage_, MemoryCategory::kBaseTable);
    RowBuilder row(&ps);
    for (int i = 0; i < rows; ++i) {
      row.SetInt32(0, i % 7);
      row.SetInt32(1, i % 5);
      row.SetDouble(2, static_cast<double>(i % 13));
      t->AppendRow(row.data());
    }
    return t;
  };
  auto probe = make("probe", 400);
  auto build = make("build", 150);
  for (const JoinKind kind : {JoinKind::kInner, JoinKind::kLeftSemi}) {
    MaterializingEngine::JoinSpec spec;
    spec.build_keys = {0, 1};
    spec.build_payload = {2};
    spec.probe_keys = {0, 1};
    spec.probe_out = {0, 1, 2};
    spec.kind = kind;
    // Keep matches where probe v < 0.8 * build v (drops most candidates).
    spec.residuals = {ResidualCondition{2, 0, CompareOp::kLt, 0.8}};
    ExpectKernelParity(&storage_, *probe, *build, spec, "composite");
  }
}

TEST_F(OperatorsTest, BatchedKernelParityEmptyInputs) {
  auto empty = MakeKvTable(&storage_, "empty", 0, 10);
  auto nonempty = MakeKvTable(&storage_, "nonempty", 50, 10);
  MaterializingEngine::JoinSpec spec;
  spec.build_keys = {0};
  spec.build_payload = {1};
  spec.probe_keys = {0};
  spec.probe_out = {0, 1};
  ExpectKernelParity(&storage_, *empty, *nonempty, spec, "empty probe");
  ExpectKernelParity(&storage_, *nonempty, *empty, spec, "empty build");
}

/// The one-row oracle of probe emission: probes each row of `probe` on
/// its own, applies the residuals, and stitches every output row as a
/// packed row (probe columns, then an inner join's payload).
std::string OneRowProbeOracle(const Table& probe, const JoinHashTable& table,
                              const std::vector<int>& probe_keys,
                              const std::vector<int>& probe_out,
                              JoinKind kind,
                              const std::vector<ResidualCondition>& residuals) {
  const Schema& payload = table.payload_schema();
  const Schema probe_part = SubSchema(probe.schema(), probe_out);
  const size_t payload_width =
      kind == JoinKind::kInner ? payload.row_width() : 0;
  std::vector<std::byte> row(probe_part.row_width() + payload_width);
  std::string out;
  auto emit = [&] {
    out.append(reinterpret_cast<const char*>(row.data()), row.size());
  };
  std::vector<uint64_t> hashes;
  std::vector<JoinMatch> matches;
  for (const Block* block : probe.blocks()) {
    for (uint32_t r = 0; r < block->num_rows(); ++r) {
      uint64_t key[2] = {};
      ExtractKeys(*block, probe_keys, r, 1, key);
      matches.clear();
      table.ProbeBatch(key, 1, 0, &hashes, &matches);
      ExtractColumns(*block, probe_out, probe_part, r, row.data());
      bool any = false;
      for (const JoinMatch& match : matches) {
        bool ok = true;
        for (const ResidualCondition& cond : residuals) {
          const double probe_val =
              LoadNumeric(probe.schema().column(cond.probe_col).type,
                          block->Column(cond.probe_col).at(r));
          const double build_val =
              cond.scale *
              LoadNumeric(payload.column(cond.payload_col).type,
                          match.payload + payload.offset(cond.payload_col));
          ok = ok && CompareValues(cond.op, probe_val, build_val);
        }
        if (!ok) continue;
        any = true;
        if (kind == JoinKind::kInner) {
          std::memcpy(row.data() + probe_part.row_width(), match.payload,
                      payload_width);
          emit();
        }
      }
      if ((kind == JoinKind::kLeftSemi && any) ||
          (kind == JoinKind::kLeftAnti && !any)) {
        emit();
      }
    }
  }
  return out;
}

TEST_F(OperatorsTest, ProbeEmissionMatchesOneRowOracleAcrossOutputBlocks) {
  // Three build rows per key; probe keys 40..49 never match.
  auto build = MakeKvTable(&storage_, "build", 120, 40);
  auto probe = MakeKvTable(&storage_, "probe", 700, 50, Layout::kColumnStore,
                           /*block_bytes=*/2048);
  BuildHashOperator build_op("build", {0}, {1, 0}, 0.75, &storage_.tracker());
  OperatorExecContext ctx;
  ctx.join.batch_size = 64;
  build_op.BindExecContext(ctx);
  build_op.InitHashTable(build->schema());
  build_op.AttachBaseTable(build.get());
  MaterializingEngine::Drive(&build_op);
  const std::vector<int> probe_out = {1, 0};
  const std::vector<ResidualCondition> keep_larger = {
      ResidualCondition{1, 0, CompareOp::kGt, 1.0}};  // probe v > build v

  for (const JoinKind kind :
       {JoinKind::kInner, JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    for (const bool residual : {false, true}) {
      for (const Layout layout : {Layout::kRowStore, Layout::kColumnStore}) {
        const std::vector<ResidualCondition> residuals =
            residual ? keep_larger : std::vector<ResidualCondition>{};
        Schema out_schema = ProbeHashOperator::OutputSchema(
            probe->schema(), probe_out, build_op.hash_table()->payload_schema(),
            {0, 1}, kind);
        // Five rows per output block: every 64-row batch crosses blocks.
        Table out("out", out_schema, layout, 5 * out_schema.row_width(),
                  &storage_, MemoryCategory::kTemporaryTable);
        InsertDestination dest(&storage_, &out, nullptr);
        ProbeHashOperator probe_op("probe", &build_op, {0}, probe_out, kind,
                                   residuals, &dest);
        probe_op.BindExecContext(ctx);
        probe_op.AttachBaseTable(probe.get());
        MaterializingEngine::Drive(&probe_op);
        const std::string want =
            OneRowProbeOracle(*probe, *build_op.hash_table(), {0}, probe_out,
                              kind, residuals);
        const std::string label = std::to_string(static_cast<int>(kind)) +
                                  (residual ? " residual " : " plain ") +
                                  LayoutName(layout);
        ASSERT_FALSE(want.empty()) << label;
        EXPECT_GT(out.blocks().size(), 1u) << label;
        EXPECT_EQ(TableBytes(out), want) << label;
      }
    }
  }
}

TEST_F(OperatorsTest, ProbeOutputSchemaComposition) {
  Schema probe({{"a", Type::Int32()}, {"b", Type::Double()}});
  Schema build({{"k", Type::Int32()}, {"p", Type::Char(3)}});
  Schema inner = ProbeHashOperator::OutputSchema(probe, {1}, build, {1},
                                                 JoinKind::kInner);
  EXPECT_EQ(inner.ToString(), "(b DOUBLE, p CHAR(3))");
  Schema semi = ProbeHashOperator::OutputSchema(probe, {0, 1}, build, {1},
                                                JoinKind::kLeftSemi);
  EXPECT_EQ(semi.ToString(), "(a INT32, b DOUBLE)");
}

}  // namespace
}  // namespace uot

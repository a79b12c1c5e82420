// Hash-aggregation oracle tests: the partitioned aggregation, run through
// the engine in vectorized and fused mode on 1 and 4 workers, must produce
// exactly the rows of a row-by-row std::map reference computed here,
// compared through CanonicalRows. Aggregated values are multiples of 1/4
// far below 2^53, so every sum is exact in any merge order and the
// comparison can be byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exec/query_executor.h"
#include "model/memory_model.h"
#include "expr/predicate.h"
#include "expr/projection.h"
#include "operators/aggregate_operator.h"
#include "plan/plan_builder.h"
#include "plan/query_plan.h"
#include "storage/insert_destination.h"
#include "storage/storage_manager.h"
#include "test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"
#include "types/date.h"
#include "types/row_builder.h"

namespace uot {
namespace {

using ::uot::testing::FuzzRng;

// Input columns. Every group id maps to one value per key column; each key
// shape below is injective in the id.
constexpr int kColA = 0;  // INT32, negative for most ids
constexpr int kColB = 1;  // INT64, large magnitudes
constexpr int kColD = 2;  // DATE
constexpr int kColS = 3;  // CHAR(6)
constexpr int kColV = 4;  // DOUBLE, multiples of 0.25
constexpr int kColW = 5;  // INT32

Schema InputSchema() {
  return Schema({{"a", Type::Int32()},
                 {"b", Type::Int64()},
                 {"d", Type::Date()},
                 {"s", Type::Char(6)},
                 {"v", Type::Double()},
                 {"w", Type::Int32()}});
}

struct InputRow {
  int32_t a;
  int64_t b;
  int32_t d;
  std::string s;
  double v;
  int32_t w;
};

InputRow RowForGroup(uint64_t id, FuzzRng* rng) {
  InputRow row;
  row.a = static_cast<int32_t>(id) - 150000;
  row.b = static_cast<int64_t>(id / 8) * 1000000007LL - 4000000000000LL;
  row.d = 9000 + static_cast<int32_t>(id % 977);
  row.s = std::string("s").append(std::to_string(id % 8));
  row.v = static_cast<double>(rng->Range(-40000, 40000)) / 4.0;
  row.w = static_cast<int32_t>(rng->Range(-1000, 1000));
  return row;
}

/// `rows` rows over `groups` group ids: the first `groups` rows visit every
/// id once (in a scrambled order), the rest pick ids at random.
std::vector<InputRow> MakeRows(uint64_t groups, uint64_t rows, uint64_t seed) {
  FuzzRng rng(seed);
  std::vector<InputRow> out;
  out.reserve(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    const uint64_t id = r < groups
                            ? (r * 7919 + seed) % groups
                            : rng.Next() % groups;
    out.push_back(RowForGroup(id, &rng));
  }
  return out;
}

std::unique_ptr<Table> MakeTable(StorageManager* storage,
                                 const std::vector<InputRow>& rows) {
  auto table = std::make_unique<Table>("in", InputSchema(), Layout::kRowStore,
                                       16 * 1024, storage,
                                       MemoryCategory::kBaseTable);
  RowBuilder row(&table->schema());
  for (const InputRow& r : rows) {
    row.SetInt32(kColA, r.a);
    row.SetInt64(kColB, r.b);
    row.SetDate(kColD, r.d);
    row.SetChar(kColS, r.s);
    row.SetDouble(kColV, r.v);
    row.SetInt32(kColW, r.w);
    table->AppendRow(row.data());
  }
  return table;
}

/// COUNT(*), then SUM/MIN/MAX/AVG over v, then SUM and MIN over w.
std::vector<AggSpec> AllAggs() {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  aggs.push_back({AggFn::kSum, Col(kColV, Type::Double()), "sum_v"});
  aggs.push_back({AggFn::kMin, Col(kColV, Type::Double()), "min_v"});
  aggs.push_back({AggFn::kMax, Col(kColV, Type::Double()), "max_v"});
  aggs.push_back({AggFn::kAvg, Col(kColV, Type::Double()), "avg_v"});
  aggs.push_back({AggFn::kSum, Col(kColW, Type::Int32()), "sum_w"});
  aggs.push_back({AggFn::kMin, Col(kColW, Type::Int32()), "min_w"});
  return aggs;
}

/// The row-by-row reference: a std::map from the group's key values to
/// its running aggregates, rendered into a table of the operator's output
/// schema. An empty scalar aggregate is one row of zeros.
std::string Oracle(StorageManager* storage, const std::vector<InputRow>& rows,
                   const std::vector<int>& group_cols, double min_v) {
  using Key = std::tuple<int32_t, int64_t, int32_t, std::string>;
  struct Acc {
    int64_t count = 0;
    double sum_v = 0, min_v = 0, max_v = 0, sum_w = 0, min_w = 0;
  };
  std::map<Key, Acc> groups;
  for (const InputRow& r : rows) {
    if (!(r.v > min_v)) continue;
    Key key{0, 0, 0, ""};
    for (const int c : group_cols) {
      if (c == kColA) std::get<0>(key) = r.a;
      if (c == kColB) std::get<1>(key) = r.b;
      if (c == kColD) std::get<2>(key) = r.d;
      if (c == kColS) std::get<3>(key) = r.s;
    }
    Acc& acc = groups[key];
    if (acc.count == 0) {
      acc.min_v = acc.max_v = r.v;
      acc.min_w = r.w;
    }
    ++acc.count;
    acc.sum_v += r.v;
    acc.min_v = std::min(acc.min_v, r.v);
    acc.max_v = std::max(acc.max_v, r.v);
    acc.sum_w += r.w;
    acc.min_w = std::min(acc.min_w, static_cast<double>(r.w));
  }
  if (groups.empty() && group_cols.empty()) groups[Key{0, 0, 0, ""}] = Acc{};

  const Schema schema =
      AggregateOperator::OutputSchema(InputSchema(), group_cols, AllAggs());
  Table out("oracle", schema, Layout::kRowStore, 64 * 1024, storage,
            MemoryCategory::kOther);
  RowBuilder row(&out.schema());
  for (const auto& [key, acc] : groups) {
    int col = 0;
    for (const int c : group_cols) {
      if (c == kColA) row.SetInt32(col, std::get<0>(key));
      if (c == kColB) row.SetInt64(col, std::get<1>(key));
      if (c == kColD) row.SetDate(col, std::get<2>(key));
      if (c == kColS) row.SetChar(col, std::get<3>(key));
      ++col;
    }
    row.SetInt64(col++, acc.count);
    row.SetDouble(col++, acc.sum_v);
    row.SetDouble(col++, acc.min_v);
    row.SetDouble(col++, acc.max_v);
    row.SetDouble(col++, acc.count == 0
                             ? 0.0
                             : acc.sum_v / static_cast<double>(acc.count));
    row.SetDouble(col++, acc.sum_w);
    row.SetDouble(col++, acc.min_w);
    out.AppendRow(row.data());
  }
  return CanonicalRows(out);
}

/// Runs select(v > min_v) -> aggregate through the engine and returns the
/// result's canonical rows. In fused mode the two operators run as one
/// chain, so the aggregate tail accumulates per fused work order.
std::string RunEngine(StorageManager* storage, const Table& input,
                      const std::vector<int>& group_cols, double min_v,
                      int workers, PipelineMode mode) {
  PlanBuilderConfig config;
  config.block_bytes = 16 * 1024;
  PlanBuilder builder(storage, config);
  PlanBuilder::Src sel = builder.Select(
      "sel", PlanBuilder::Base(input),
      Cmp(CompareOp::kGt, Col(kColV, Type::Double()), LitDouble(min_v)),
      Projection::Identity(input.schema(), {0, 1, 2, 3, 4, 5}));
  PlanBuilder::Src agg = builder.Aggregate("agg", sel, group_cols, AllAggs());
  std::unique_ptr<QueryPlan> plan = builder.Finish(agg);

  ExecConfig exec;
  exec.num_workers = workers;
  exec.uot = UotPolicy::LowUot(1);
  exec.pipeline_mode = mode;
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
  EXPECT_EQ(stats.fused_chains.size(), mode == PipelineMode::kFused ? 1u : 0u);
  return CanonicalRows(*plan->result_table());
}

struct Case {
  const char* name;
  uint64_t groups;
  uint64_t rows;
  std::vector<int> group_cols;
};

class AggregateOracleTest : public ::testing::TestWithParam<Case> {};

TEST_P(AggregateOracleTest, MatchesRowByRowReference) {
  const Case& c = GetParam();
  StorageManager storage;
  const std::vector<InputRow> rows = MakeRows(c.groups, c.rows, c.groups);
  std::unique_ptr<Table> input = MakeTable(&storage, rows);
  // A filter that keeps about 90% of the rows.
  const double min_v = -8000.0;
  const std::string expected = Oracle(&storage, rows, c.group_cols, min_v);
  ASSERT_FALSE(expected.empty());
  for (const int workers : {1, 4}) {
    for (const PipelineMode mode :
         {PipelineMode::kVectorized, PipelineMode::kFused}) {
      EXPECT_EQ(RunEngine(&storage, *input, c.group_cols, min_v, workers,
                          mode),
                expected)
          << c.name << " workers=" << workers << " "
          << PipelineModeName(mode);
    }
  }
}

TEST_P(AggregateOracleTest, EmptyInput) {
  const Case& c = GetParam();
  StorageManager storage;
  const std::vector<InputRow> rows = MakeRows(c.groups, 2000, c.groups);
  std::unique_ptr<Table> input = MakeTable(&storage, rows);
  // No row passes: a scalar aggregate is one row of zeros (MIN and MAX
  // included), a grouped one has no rows.
  const double min_v = 1e9;
  const std::string expected = Oracle(&storage, rows, c.group_cols, min_v);
  EXPECT_EQ(expected.empty(), !c.group_cols.empty());
  for (const int workers : {1, 4}) {
    for (const PipelineMode mode :
         {PipelineMode::kVectorized, PipelineMode::kFused}) {
      EXPECT_EQ(RunEngine(&storage, *input, c.group_cols, min_v, workers,
                          mode),
                expected)
          << c.name << " workers=" << workers << " "
          << PipelineModeName(mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cardinalities, AggregateOracleTest,
    ::testing::Values(
        Case{"scalar", 1, 20000, {}},
        Case{"g4_int32", 4, 20000, {kColA}},
        Case{"g4_date_int32_char", 4, 20000, {kColD, kColA, kColS}},
        Case{"g10k_int64_char", 10000, 40000, {kColB, kColS}},
        Case{"g10k_date_int32_char", 10000, 40000, {kColD, kColA, kColS}},
        Case{"g300k_int32", 300000, 360000, {kColA}},
        Case{"g300k_int64_char", 300000, 360000, {kColB, kColS}}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

/// A leaf-aggregate case: one integral group column over a base table,
/// with group id `id` keyed a = a_base + id (INT32) and
/// b = b_base + id * b_step (INT64); DATE keys span 977 days.
struct LeafCase {
  const char* name;
  uint64_t groups;
  uint64_t rows;
  int group_col;
  int64_t a_base;
  int64_t b_base;
  int64_t b_step;
  bool dense;  // the layout the footprint rule must pick
};

std::vector<InputRow> LeafRows(const LeafCase& c) {
  FuzzRng rng(c.groups);
  std::vector<InputRow> out;
  out.reserve(c.rows);
  for (uint64_t r = 0; r < c.rows; ++r) {
    const uint64_t id =
        r < c.groups ? (r * 7919 + 1) % c.groups : rng.Next() % c.groups;
    InputRow row = RowForGroup(id, &rng);
    row.a = static_cast<int32_t>(c.a_base + static_cast<int64_t>(id));
    row.b = c.b_base + static_cast<int64_t>(id) * c.b_step;
    out.push_back(row);
  }
  return out;
}

/// Runs aggregate(v > min_v) straight over `input` (no select: the base
/// table feeds the aggregate, as in TPC-H Q17) and returns the canonical
/// rows; `*dense` reports the layout the operator chose.
std::string RunLeaf(StorageManager* storage, const Table& input,
                    int group_col, double min_v, int workers, bool* dense) {
  PlanBuilderConfig config;
  config.block_bytes = 16 * 1024;
  PlanBuilder builder(storage, config);
  PlanBuilder::Src agg = builder.Aggregate(
      "agg", PlanBuilder::Base(input), {group_col}, AllAggs(),
      Cmp(CompareOp::kGt, Col(kColV, Type::Double()), LitDouble(min_v)));
  std::unique_ptr<QueryPlan> plan = builder.Finish(agg);
  ExecConfig exec;
  exec.num_workers = workers;
  exec.uot = UotPolicy::LowUot(1);
  QueryExecutor::Execute(plan.get(), exec);
  *dense = dynamic_cast<const AggregateOperator&>(*plan->op(agg.op)).dense();
  EXPECT_EQ(storage->tracker().Current(MemoryCategory::kAggregation), 0);
  return CanonicalRows(*plan->result_table());
}

class LeafAggregateTest : public ::testing::TestWithParam<LeafCase> {};

TEST_P(LeafAggregateTest, MatchesRowByRowReference) {
  const LeafCase& c = GetParam();
  StorageManager storage;
  const std::vector<InputRow> rows = LeafRows(c);
  std::unique_ptr<Table> input = MakeTable(&storage, rows);
  // About 90% of the rows pass; then none (an empty grouped result).
  for (const double min_v : {-8000.0, 1e9}) {
    const std::string expected =
        Oracle(&storage, rows, {c.group_col}, min_v);
    EXPECT_EQ(expected.empty(), min_v > 0);
    for (const int workers : {1, 4}) {
      bool dense = false;
      EXPECT_EQ(RunLeaf(&storage, *input, c.group_col, min_v, workers,
                        &dense),
                expected)
          << c.name << " min_v=" << min_v << " workers=" << workers;
      EXPECT_EQ(dense, c.dense) << c.name << " workers=" << workers;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NarrowKeys, LeafAggregateTest,
    ::testing::Values(
        LeafCase{"negative_int32", 1000, 30000, kColA, -1500, 0, 1, true},
        LeafCase{"single_key", 1, 5000, kColA, -3, 0, 1, true},
        LeafCase{"int32_min", 300, 20000, kColA, INT32_MIN, 0, 1, true},
        LeafCase{"int64_max", 300, 20000, kColB, 0, INT64_MAX - 299, 1, true},
        LeafCase{"date", 977, 20000, kColD, 0, 0, 1, true},
        // A span past 2^32 keys keeps the hash layout on a base table.
        LeafCase{"wide_int64", 2000, 8000, kColB, 0, -4000000000000LL,
                 1000000007, false}),
    [](const ::testing::TestParamInfo<LeafCase>& info) {
      return std::string(info.param.name);
    });

/// A leaf aggregate over a key tuple of a (f CHAR(1), t CHAR(1), k INT32,
/// b INT64, v DOUBLE) base table, checked against its own row-by-row
/// std::map reference. f takes 'A', 'N' or 'R' and t 'F' or 'O', like
/// TPC-H's l_returnflag and l_linestatus; k spans 40 values and b about
/// 2^31.3 (each fits 32 bits, the pair does not).
struct KeyTupleCase {
  const char* name;
  std::vector<int> group_cols;
  bool dense;  // the layout the footprint rule must pick
};

constexpr int kTupleF = 0;
constexpr int kTupleT = 1;
constexpr int kTupleK = 2;
constexpr int kTupleB = 3;
constexpr int kTupleV = 4;

struct TupleRow {
  char f;
  char t;
  int32_t k;
  int64_t b;
  double v;
};

std::vector<TupleRow> TupleRows(uint64_t rows) {
  FuzzRng rng(28);
  std::vector<TupleRow> out;
  for (uint64_t r = 0; r < rows; ++r) {
    out.push_back(TupleRow{"ANR"[rng.Range(0, 2)], "FO"[rng.Range(0, 1)],
                           static_cast<int32_t>(rng.Range(-20, 19)),
                           rng.Range(0, 39) * (int64_t{1} << 26),
                           static_cast<double>(rng.Range(-4000, 4000)) / 4});
  }
  return out;
}

/// COUNT(*), SUM, MIN, MAX and AVG of v.
std::vector<AggSpec> TupleAggs() {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  aggs.push_back({AggFn::kSum, Col(kTupleV, Type::Double()), "sum_v"});
  aggs.push_back({AggFn::kMin, Col(kTupleV, Type::Double()), "min_v"});
  aggs.push_back({AggFn::kMax, Col(kTupleV, Type::Double()), "max_v"});
  aggs.push_back({AggFn::kAvg, Col(kTupleV, Type::Double()), "avg_v"});
  return aggs;
}

/// The reference rows of the leaf aggregate over rows with v > min_v: one
/// CSV line per group, in CanonicalRows' format. An empty scalar aggregate
/// is one row of zeros.
std::string TupleOracle(const std::vector<TupleRow>& rows,
                        const std::vector<int>& group_cols, double min_v) {
  struct Acc {
    int64_t count = 0;
    double sum = 0, min = 0, max = 0;
  };
  std::map<std::string, Acc> groups;
  for (const TupleRow& r : rows) {
    if (!(r.v > min_v)) continue;
    std::string key;
    for (const int c : group_cols) {
      key += c == kTupleF   ? std::string(1, r.f)
             : c == kTupleT ? std::string(1, r.t)
             : c == kTupleK ? std::to_string(r.k)
                            : std::to_string(r.b);
      key += ",";
    }
    Acc& acc = groups[key];
    if (acc.count++ == 0) acc.min = acc.max = r.v;
    acc.sum += r.v;
    acc.min = std::min(acc.min, r.v);
    acc.max = std::max(acc.max, r.v);
  }
  if (groups.empty() && group_cols.empty()) groups[""] = Acc{};
  std::vector<std::string> lines;
  for (const auto& [key, acc] : groups) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s%lld,%.7g,%.7g,%.7g,%.7g",
                  key.c_str(), static_cast<long long>(acc.count), acc.sum,
                  acc.min, acc.max,
                  acc.count == 0 ? 0.0 : acc.sum / acc.count);
    lines.push_back(buf);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

class LeafKeyTupleTest : public ::testing::TestWithParam<KeyTupleCase> {};

TEST_P(LeafKeyTupleTest, MatchesRowByRowReference) {
  const KeyTupleCase& c = GetParam();
  StorageManager storage;
  const std::vector<TupleRow> rows = TupleRows(20000);
  Table input("in",
              Schema({{"f", Type::Char(1)},
                      {"t", Type::Char(1)},
                      {"k", Type::Int32()},
                      {"b", Type::Int64()},
                      {"v", Type::Double()}}),
              Layout::kColumnStore, 16 * 1024, &storage,
              MemoryCategory::kBaseTable);
  for (const TupleRow& r : rows) {
    input.AppendValues({TypedValue::Char(std::string(1, r.f)),
                        TypedValue::Char(std::string(1, r.t)),
                        TypedValue::Int32(r.k), TypedValue::Int64(r.b),
                        TypedValue::Double(r.v)});
  }
  // About 90% of the rows pass; then none.
  for (const double min_v : {-800.0, 1e9}) {
    const std::string expected = TupleOracle(rows, c.group_cols, min_v);
    for (const int workers : {1, 4}) {
      PlanBuilderConfig config;
      config.block_bytes = 16 * 1024;
      PlanBuilder builder(&storage, config);
      PlanBuilder::Src agg = builder.Aggregate(
          "agg", PlanBuilder::Base(input), c.group_cols, TupleAggs(),
          Cmp(CompareOp::kGt, Col(kTupleV, Type::Double()),
              LitDouble(min_v)));
      std::unique_ptr<QueryPlan> plan = builder.Finish(agg);
      ExecConfig exec;
      exec.num_workers = workers;
      exec.uot = UotPolicy::LowUot(1);
      QueryExecutor::Execute(plan.get(), exec);
      EXPECT_EQ(CanonicalRows(*plan->result_table()), expected)
          << c.name << " min_v=" << min_v << " workers=" << workers;
      EXPECT_EQ(
          dynamic_cast<const AggregateOperator&>(*plan->op(agg.op)).dense(),
          c.dense)
          << c.name;
      EXPECT_EQ(storage.tracker().Current(MemoryCategory::kAggregation), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeyTuples, LeafKeyTupleTest,
    ::testing::Values(
        KeyTupleCase{"char1", {kTupleF}, true},
        KeyTupleCase{"q1_char1_pair", {kTupleF, kTupleT}, true},
        KeyTupleCase{"three_keys", {kTupleT, kTupleK, kTupleF}, true},
        KeyTupleCase{"scalar", {}, true},
        // 40 k values times a span of about 2^31.3 b words: hash.
        KeyTupleCase{"range_product_past_2_32", {kTupleK, kTupleB}, false}),
    [](const ::testing::TestParamInfo<KeyTupleCase>& info) {
      return std::string(info.param.name);
    });

/// Whether a leaf `fn`(v) grouped by k over `input` picks the dense layout
/// on `workers` workers.
bool ChoosesDense(const Table& input, AggFn fn, int workers) {
  StorageManager storage;
  std::vector<AggSpec> aggs;
  aggs.push_back({fn, Col(1, Type::Double()), "agg"});
  const Schema out_schema =
      AggregateOperator::OutputSchema(input.schema(), {0}, aggs);
  Table out("out", out_schema, Layout::kRowStore, 4096, &storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  AggregateOperator op("agg", input.schema(), {0}, std::move(aggs), nullptr,
                       &dest, &storage.tracker());
  OperatorExecContext ctx;
  ctx.num_workers = workers;
  op.BindExecContext(ctx);
  op.AttachBaseTable(&input);
  std::vector<std::unique_ptr<WorkOrder>> orders;
  op.GenerateWorkOrders(&orders);
  return op.dense();
}

TEST(AggregateLayoutTest, Q17ShapedInputGoesDenseAndQ18ShapedInputGoesHash) {
  // At SF 0.5, Q17 averages l_quantity by l_partkey (100k values over 3M
  // rows) and Q18 sums it by l_orderkey (about 3M values). Both states are
  // 24 bytes: the row count and one (sum, comp) pair.
  EXPECT_TRUE(MemoryModel::AggregationBytes(3000000, 100000, 4, 24).dense);
  EXPECT_FALSE(MemoryModel::AggregationBytes(3000000, 3000000, 4, 24).dense);
  EXPECT_EQ(MemoryModel::AggregationBytes(3000000, 100000, 4, 24).bytes,
            2400000u);

  // The same shapes at 1/100 scale, through the operator.
  StorageManager storage;
  std::unique_ptr<Table> q17 =
      ::uot::testing::MakeKvTable(&storage, "q17", 30000, 1000);
  std::unique_ptr<Table> q18 =
      ::uot::testing::MakeKvTable(&storage, "q18", 30000, 30000);
  EXPECT_TRUE(ChoosesDense(*q17, AggFn::kAvg, 4));
  EXPECT_FALSE(ChoosesDense(*q18, AggFn::kSum, 4));
  // One worker array is small enough even for the Q18 shape.
  EXPECT_TRUE(ChoosesDense(*q18, AggFn::kSum, 1));
}

TEST(AggregateLayoutTest, Q1ShapedInputGoesDense) {
  // TPC-H Q1 groups lineitem by two CHAR(1) columns ('A'..'R' and 'F'..'O':
  // 18 * 10 index values) with eight aggregates.
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = 0.005;
  db.Generate(config);
  std::unique_ptr<QueryPlan> plan = BuildTpchPlan(1, db, TpchPlanConfig{});
  ExecConfig exec;
  exec.num_workers = 4;
  QueryExecutor::Execute(plan.get(), exec);
  const AggregateOperator* agg = nullptr;
  for (int i = 0; i < plan->num_operators(); ++i) {
    if (agg == nullptr) {
      agg = dynamic_cast<const AggregateOperator*>(plan->op(i));
    }
  }
  ASSERT_NE(agg, nullptr);
  EXPECT_TRUE(agg->dense());
  EXPECT_EQ(plan->result_table()->NumRows(), 4u);
}

TEST(AggregateLayoutTest, Q1SharesSumStatesAndMatchesRowByRowReference) {
  // Q1's seven SUM and AVG aggregates read five distinct inputs (avg_qty
  // and avg_price divide sum_qty's and sum_base_price's states), so its
  // groups hold the row count and five (sum, comp) pairs. Each result must
  // have the bits of a row-by-row reference that keeps one compensated sum
  // per input and evaluates the price arithmetic as the plan writes it.
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = 0.005;
  db.Generate(config);
  const Table& l = db.lineitem();
  struct Acc {
    int64_t count = 0;
    AggWord pairs[5][2] = {};  // qty, price, disc_price, charge, discount
  };
  std::map<std::string, Acc> reference;
  const int32_t cutoff = MakeDate(1998, 12, 1) - 90;
  for (uint64_t r = 0; r < l.NumRows(); ++r) {
    if (l.GetValue(r, tpch::kLShipdate).AsInt32() > cutoff) continue;
    const double qty = l.GetValue(r, tpch::kLQuantity).AsDouble();
    const double price =
        l.GetValue(r, tpch::kLExtendedprice).AsDouble();
    const double disc = l.GetValue(r, tpch::kLDiscount).AsDouble();
    const double tax = l.GetValue(r, tpch::kLTax).AsDouble();
    const double disc_price = price * (1.0 - disc);
    Acc& acc = reference[l.GetValue(r, tpch::kLReturnflag).AsChar() +
                         l.GetValue(r, tpch::kLLinestatus).AsChar()];
    ++acc.count;
    const double inputs[5] = {qty, price, disc_price,
                              disc_price * (1.0 + tax), disc};
    for (int k = 0; k < 5; ++k) AggLayout::Add(acc.pairs[k], inputs[k]);
  }
  for (const int workers : {1, 4}) {
    std::unique_ptr<QueryPlan> plan = BuildTpchPlan(1, db, TpchPlanConfig{});
    ExecConfig exec;
    exec.num_workers = workers;
    QueryExecutor::Execute(plan.get(), exec);
    const AggregateOperator* agg = nullptr;
    for (int i = 0; i < plan->num_operators(); ++i) {
      if (agg == nullptr) {
        agg = dynamic_cast<const AggregateOperator*>(plan->op(i));
      }
    }
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->layout().sums(), 5u);
    EXPECT_EQ(agg->layout().bytes(), 11 * sizeof(AggWord));
    const Table& result = *plan->result_table();
    ASSERT_EQ(result.NumRows(), reference.size());
    for (uint64_t r = 0; r < result.NumRows(); ++r) {
      const std::string key =
          result.GetValue(r, 0).AsChar() + result.GetValue(r, 1).AsChar();
      ASSERT_EQ(reference.count(key), 1u) << key;
      const Acc& acc = reference[key];
      const double count = static_cast<double>(acc.count);
      const double expected[7] = {
          AggLayout::Total(acc.pairs[0]),         AggLayout::Total(acc.pairs[1]),
          AggLayout::Total(acc.pairs[2]),         AggLayout::Total(acc.pairs[3]),
          AggLayout::Total(acc.pairs[0]) / count, AggLayout::Total(acc.pairs[1]) / count,
          AggLayout::Total(acc.pairs[4]) / count};
      for (int c = 0; c < 7; ++c) {
        const double got = result.GetValue(r, 2 + c).AsDouble();
        EXPECT_EQ(std::memcmp(&got, &expected[c], 8), 0)
            << key << " column " << 2 + c << ": " << got << " vs "
            << expected[c] << ", workers " << workers;
      }
      EXPECT_EQ(result.GetValue(r, 9).AsInt64(), acc.count) << key;
    }
  }
}

TEST(AggStateTest, UpdateLoopsLeaveTheBitsOfThePerRowLoop) {
  // Five sums (a chunk of four, then one), MIN and MAX over inputs of mixed
  // magnitude, so every addition rounds: the register loop of a one-group
  // batch, the scatter loop and Update must leave exactly the words of
  // AggLayout::Add run row by row.
  std::vector<AggSpec> specs;
  specs.push_back({AggFn::kCount, nullptr, "cnt"});
  for (int a = 0; a < 5; ++a) {
    specs.push_back({a % 2 == 0 ? AggFn::kSum : AggFn::kAvg,
                     Col(0, Type::Double()), "sum"});
  }
  specs.push_back({AggFn::kMin, Col(0, Type::Double()), "min"});
  specs.push_back({AggFn::kMax, Col(0, Type::Double()), "max"});
  const AggLayout layout(specs);
  const size_t words = layout.words();
  FuzzRng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t n = static_cast<uint32_t>(rng.Range(1, 3000));
    const uint32_t lo = static_cast<uint32_t>(rng.Range(0, 5));
    // Every third batch is one group.
    const uint32_t span =
        trial % 3 == 0 ? 1 : static_cast<uint32_t>(rng.Range(1, 40));
    const uint32_t num_groups = lo + span;
    std::vector<uint32_t> groups(n);
    std::vector<std::vector<double>> values(specs.size(),
                                            std::vector<double>(n));
    for (uint32_t i = 0; i < n; ++i) {
      groups[i] = lo + static_cast<uint32_t>(rng.Range(0, span - 1));
      for (size_t a = 1; a < specs.size(); ++a) {
        values[a][i] = static_cast<double>(rng.Range(-1000000, 1000000)) *
                       std::ldexp(1.0, static_cast<int>(rng.Range(-30, 30)));
      }
    }
    std::vector<const double*> inputs(specs.size(), nullptr);
    for (size_t a = 1; a < specs.size(); ++a) inputs[a] = values[a].data();
    std::vector<AggWord> fresh(num_groups * words);
    for (uint32_t g = 0; g < num_groups; ++g) {
      std::copy(layout.init(), layout.init() + words, &fresh[g * words]);
    }
    std::vector<AggWord> expected = fresh;
    for (uint32_t i = 0; i < n; ++i) {
      AggWord* s = &expected[groups[i] * words];
      ++s[0].count;
      for (size_t a = 1; a < specs.size(); ++a) {
        AggWord* w = s + layout.offset(a);
        const double v = values[a][i];
        if (specs[a].fn == AggFn::kMin) {
          w->value = std::min(w->value, v);
        } else if (specs[a].fn == AggFn::kMax) {
          w->value = std::max(w->value, v);
        } else {
          AggLayout::Add(w, v);
        }
      }
    }
    const size_t bytes = expected.size() * sizeof(AggWord);
    std::vector<AggWord> scatter = fresh;
    layout.UpdateScatter(groups.data(), n, inputs.data(), scatter.data());
    ASSERT_EQ(std::memcmp(scatter.data(), expected.data(), bytes), 0)
        << "scatter, trial " << trial;
    std::vector<AggWord> chosen = fresh;
    layout.Update(groups.data(), n, inputs.data(), chosen.data());
    ASSERT_EQ(std::memcmp(chosen.data(), expected.data(), bytes), 0)
        << "update, trial " << trial;
    if (span == 1) {
      std::vector<AggWord> group = fresh;
      layout.UpdateGroup(&group[lo * words], n, inputs.data());
      ASSERT_EQ(std::memcmp(group.data(), expected.data(), bytes), 0)
          << "one group, trial " << trial;
    }
  }
}

TEST(AggStateTest, SkewedFewGroupBatchesLeaveTheBitsOfThePerRowLoop) {
  // TPC-H Q1's four groups hold about 25%, 0.5%, 50% and 25% of the rows,
  // so the row-major scatter loop meets a group's previous store every few
  // rows. For 1 to 9 sums (nine take a pass of eight sums and a pass of
  // one) between a MIN and a MAX, with the COUNT in the middle, the
  // scatter loop and Update must leave exactly the words of AggLayout::Add
  // run row by row.
  FuzzRng rng(29);
  for (int sums = 1; sums <= 9; ++sums) {
    std::vector<AggSpec> specs;
    specs.push_back({AggFn::kMin, nullptr, "min"});
    for (int a = 0; a < sums; ++a) {
      if (a == sums / 2) specs.push_back({AggFn::kCount, nullptr, "cnt"});
      specs.push_back({a % 3 == 1 ? AggFn::kAvg : AggFn::kSum, nullptr, "s"});
    }
    specs.push_back({AggFn::kMax, nullptr, "max"});
    const AggLayout layout(specs);
    ASSERT_EQ(layout.sums(), static_cast<size_t>(sums));
    const size_t words = layout.words();
    for (int trial = 0; trial < 20; ++trial) {
      const uint32_t n = static_cast<uint32_t>(rng.Range(1, 3000));
      const uint32_t lo = static_cast<uint32_t>(rng.Range(0, 3));
      std::vector<uint32_t> groups(n);
      std::vector<std::vector<double>> values(specs.size(),
                                              std::vector<double>(n));
      for (uint32_t i = 0; i < n; ++i) {
        const int64_t p = rng.Range(0, 999);
        groups[i] = lo + (p < 250 ? 0 : p < 255 ? 1 : p < 755 ? 2 : 3);
        for (std::vector<double>& v : values) {
          v[i] = static_cast<double>(rng.Range(-1000000, 1000000)) *
                 std::ldexp(1.0, static_cast<int>(rng.Range(-30, 30)));
        }
      }
      std::vector<const double*> inputs(specs.size(), nullptr);
      for (size_t a = 0; a < specs.size(); ++a) {
        if (specs[a].fn != AggFn::kCount) inputs[a] = values[a].data();
      }
      std::vector<AggWord> fresh((lo + 4) * words);
      for (uint32_t g = 0; g < lo + 4; ++g) {
        std::copy(layout.init(), layout.init() + words, &fresh[g * words]);
      }
      std::vector<AggWord> expected = fresh;
      for (uint32_t i = 0; i < n; ++i) {
        AggWord* s = &expected[groups[i] * words];
        ++s[0].count;
        for (size_t a = 0; a < specs.size(); ++a) {
          AggWord* w = s + layout.offset(a);
          const double v = values[a][i];
          switch (specs[a].fn) {
            case AggFn::kMin:
              w->value = std::min(w->value, v);
              break;
            case AggFn::kMax:
              w->value = std::max(w->value, v);
              break;
            case AggFn::kSum:
            case AggFn::kAvg:
              AggLayout::Add(w, v);
              break;
            case AggFn::kCount:
              break;
          }
        }
      }
      const size_t bytes = expected.size() * sizeof(AggWord);
      std::vector<AggWord> scatter = fresh;
      layout.UpdateScatter(groups.data(), n, inputs.data(), scatter.data());
      ASSERT_EQ(std::memcmp(scatter.data(), expected.data(), bytes), 0)
          << "scatter, " << sums << " sums, trial " << trial;
      std::vector<AggWord> chosen = fresh;
      layout.Update(groups.data(), n, inputs.data(), chosen.data());
      ASSERT_EQ(std::memcmp(chosen.data(), expected.data(), bytes), 0)
          << "update, " << sums << " sums, trial " << trial;
    }
  }
}

/// Leaf aggregate sum(v) over a base table of (k INT32, v DOUBLE) rows,
/// k = 7 throughout (one group, so the dense layout), run as work orders
/// handed to `workers` worker arrays in a random order with random worker
/// ids; returns the sum's bits.
uint64_t DenseSumBits(const std::vector<double>& values, int workers,
                      FuzzRng* rng) {
  StorageManager storage;
  const Schema schema({{"k", Type::Int32()}, {"v", Type::Double()}});
  Table input("in", schema, Layout::kRowStore, 2048, &storage,
              MemoryCategory::kBaseTable);
  RowBuilder row(&input.schema());
  for (const double v : values) {
    row.SetInt32(0, 7);
    row.SetDouble(1, v);
    input.AppendRow(row.data());
  }
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
  const Schema out_schema = AggregateOperator::OutputSchema(schema, {0}, aggs);
  Table out("out", out_schema, Layout::kRowStore, 4096, &storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  AggregateOperator op("agg", schema, {0}, std::move(aggs), nullptr, &dest,
                       &storage.tracker());
  OperatorExecContext ctx;
  ctx.num_workers = workers;
  op.BindExecContext(ctx);
  op.AttachBaseTable(&input);
  std::vector<std::unique_ptr<WorkOrder>> orders;
  EXPECT_TRUE(op.GenerateWorkOrders(&orders));
  EXPECT_TRUE(op.dense());
  for (size_t i = orders.size(); i > 1; --i) {
    std::swap(orders[i - 1], orders[static_cast<size_t>(rng->Range(
                                 0, static_cast<int64_t>(i) - 1))]);
  }
  for (const std::unique_ptr<WorkOrder>& wo : orders) {
    wo->worker_id = static_cast<int>(rng->Range(0, workers - 1));
    wo->Execute();
  }
  op.Finish();
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kAggregation), 0);
  EXPECT_EQ(out.NumRows(), 1u);
  const double sum = out.GetValue(0, 1).AsDouble();
  uint64_t bits = 0;
  std::memcpy(&bits, &sum, 8);
  return bits;
}

TEST(AggStateTest, SumIsBitIdenticalForAnySplitAndMergeOrder) {
  // One multiset of TPC-H-like revenue terms,
  // extendedprice * (1 - discount) * (1 + tax), whose sum needs every
  // mantissa bit. Each trial shuffles it, splits it into 2-16 partials at
  // random cuts (one per work order), accumulates each partial in its
  // order and merges the partials in a random order; the compensated sum
  // must not change in its last bit. The per-function state of every
  // aggregate that sums (SUM and AVG, here next to the others) and the
  // dense layout's cross-worker merge must give those same bits.
  FuzzRng rng(19);
  std::vector<double> values(6000);
  for (double& v : values) {
    const double quantity = static_cast<double>(rng.Range(1, 50));
    const double price = static_cast<double>(rng.Range(90000, 200000)) / 100;
    const double discount = static_cast<double>(rng.Range(0, 10)) / 100;
    const double tax = static_cast<double>(rng.Range(0, 8)) / 100;
    v = quantity * price * (1 - discount) * (1 + tax);
  }
  auto shuffle = [&rng](auto* items) {
    for (size_t i = items->size(); i > 1; --i) {
      const auto j = static_cast<size_t>(
          rng.Range(0, static_cast<int64_t>(i) - 1));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  };
  std::vector<AggSpec> specs;
  specs.push_back({AggFn::kMin, nullptr, "min"});
  specs.push_back({AggFn::kSum, nullptr, "sum"});
  specs.push_back({AggFn::kCount, nullptr, "cnt"});
  specs.push_back({AggFn::kAvg, nullptr, "avg"});
  const AggLayout layout(specs);
  // Row count, (sum, comp) for SUM, one word for MIN, (sum, comp) for AVG.
  ASSERT_EQ(layout.bytes(), 48u);
  const size_t words = layout.words();
  uint64_t first_bits = 0;
  for (int trial = 0; trial < 200; ++trial) {
    shuffle(&values);
    std::vector<size_t> cuts = {0, values.size()};
    const int partials = static_cast<int>(rng.Range(2, 16));
    for (int p = 1; p < partials; ++p) {
      cuts.push_back(static_cast<size_t>(
          rng.Range(0, static_cast<int64_t>(values.size()))));
    }
    std::sort(cuts.begin(), cuts.end());
    std::vector<std::vector<AggWord>> states(cuts.size() - 1);
    for (size_t p = 0; p + 1 < cuts.size(); ++p) {
      states[p].assign(layout.init(), layout.init() + words);
      for (size_t i = cuts[p]; i < cuts[p + 1]; ++i) {
        ++states[p][0].count;
        AggLayout::Add(states[p].data() + layout.offset(1), values[i]);
        AggLayout::Add(states[p].data() + layout.offset(3), values[i]);
      }
    }
    shuffle(&states);
    std::vector<AggWord> total(layout.init(), layout.init() + words);
    for (const std::vector<AggWord>& state : states) {
      layout.Merge(total.data(), state.data());
    }
    ASSERT_EQ(total[0].count, static_cast<int64_t>(values.size()));
    const double sum = AggLayout::Total(total.data() + layout.offset(1));
    ASSERT_EQ(AggLayout::Total(total.data() + layout.offset(3)), sum);
    uint64_t bits = 0;
    std::memcpy(&bits, &sum, 8);
    if (trial == 0) first_bits = bits;
    ASSERT_EQ(bits, first_bits) << "trial " << trial << ": " << sum;
    if (trial % 20 == 0) {
      for (const int workers : {1, 4}) {
        ASSERT_EQ(DenseSumBits(values, workers, &rng), first_bits)
            << "dense, trial " << trial << ", workers " << workers;
      }
    }
  }
}

TEST(GroupTableTest, ResetEmptiesASparseTable) {
  // 10k groups size the slot array; a later Reset with 100 groups takes
  // the sparse path, which must empty exactly the slots those groups used.
  std::vector<AggSpec> specs;
  specs.push_back({AggFn::kCount, nullptr, "cnt"});
  const AggLayout layout(specs);
  GroupTable table;
  table.Reset(layout);
  for (uint64_t k = 0; k < 10000; ++k) {
    table.FindOrInsert({k, 0, 0}, GroupTable::Hash({k, 0, 0}));
  }
  table.Reset(layout);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 100; ++k) {
      const GroupKey key{k * 7 + 3, 0, 0};
      bool inserted = false;
      ASSERT_EQ(table.FindOrInsert(key, GroupTable::Hash(key), &inserted), k);
      ASSERT_TRUE(inserted) << "round " << round << " key " << k;
    }
    ASSERT_EQ(table.size(), 100u);
    table.Reset(layout);
    ASSERT_EQ(table.size(), 0u);
  }
  const GroupKey key{0, 0, 0};
  bool inserted = false;
  EXPECT_EQ(table.FindOrInsert(key, GroupTable::Hash(key), &inserted), 0u);
  EXPECT_TRUE(inserted);
}

/// Keys whose hash lands in result partition `partition`.
std::vector<GroupKey> KeysInPartition(size_t partition, size_t n,
                                      uint64_t first) {
  std::vector<GroupKey> keys;
  for (uint64_t k = first; keys.size() < n; ++k) {
    const GroupKey key{k, 0, 0};
    if ((GroupTable::Hash(key) >> (64 - AggregateOperator::kPartitionBits)) ==
        partition) {
      keys.push_back(key);
    }
  }
  return keys;
}

TEST(AggregatePartitionTest, PartitionGrowsWhileOtherThreadsMergeIntoIt) {
  // One thread merges many new keys into partition 17, so its table grows
  // (and re-slots) several times, while three other threads merge repeated
  // partials whose keys fall in partition 17 and elsewhere.
  StorageManager storage;
  const Schema input({{"k", Type::Int64()}, {"v", Type::Double()}});
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
  const Schema out_schema =
      AggregateOperator::OutputSchema(input, {0}, aggs);
  Table out("out", out_schema, Layout::kRowStore, 64 * 1024, &storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  AggregateOperator op("agg", input, {0}, std::move(aggs), nullptr, &dest,
                       &storage.tracker());

  constexpr size_t kHot = 17;
  const std::vector<GroupKey> growing = KeysInPartition(kHot, 20000, 0);
  const std::vector<GroupKey> shared_hot =
      KeysInPartition(kHot, 64, growing.back()[0] + 1);
  std::vector<GroupKey> shared_cold;
  for (size_t p = 0; p < AggregateOperator::kNumPartitions; ++p) {
    if (p == kHot) continue;
    for (const GroupKey& k : KeysInPartition(p, 4, 1u << 30)) {
      shared_cold.push_back(k);
    }
  }
  constexpr int kMergers = 3;
  constexpr int kRounds = 200;

  const AggLayout& layout = op.layout();
  auto add = [&layout](GroupTable* t, const GroupKey& key, double v) {
    AggWord* s = t->states(t->FindOrInsert(key, GroupTable::Hash(key)));
    ++s[0].count;
    AggLayout::Add(s + layout.offset(1), v);
  };
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    GroupTable partial;
    while (!go.load()) std::this_thread::yield();
    // Batches of 500 new keys: every merge grows the hot partition.
    for (size_t begin = 0; begin < growing.size(); begin += 500) {
      partial.Reset(layout);
      for (size_t i = begin; i < begin + 500; ++i) add(&partial, growing[i], 1);
      op.MergePartial(partial);
    }
  });
  for (int t = 0; t < kMergers; ++t) {
    threads.emplace_back([&] {
      GroupTable partial;
      while (!go.load()) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        partial.Reset(layout);
        for (const GroupKey& k : shared_hot) add(&partial, k, 0.5);
        for (const GroupKey& k : shared_cold) add(&partial, k, 0.25);
        op.MergePartial(partial);
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_GT(storage.tracker().Current(MemoryCategory::kAggregation), 0);
  op.Finish();
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kAggregation), 0);

  std::map<int64_t, std::pair<int64_t, double>> expected;
  for (const GroupKey& k : growing) {
    expected[static_cast<int64_t>(k[0])] = {1, 1.0};
  }
  for (const GroupKey& k : shared_hot) {
    expected[static_cast<int64_t>(k[0])] = {kMergers * kRounds,
                                            kMergers * kRounds * 0.5};
  }
  for (const GroupKey& k : shared_cold) {
    expected[static_cast<int64_t>(k[0])] = {kMergers * kRounds,
                                            kMergers * kRounds * 0.25};
  }
  ASSERT_EQ(out.NumRows(), expected.size());
  for (uint64_t r = 0; r < out.NumRows(); ++r) {
    const auto it = expected.find(out.GetValue(r, 0).AsInt64());
    ASSERT_NE(it, expected.end()) << "row " << r;
    EXPECT_EQ(out.GetValue(r, 1).AsInt64(), it->second.first);
    EXPECT_EQ(out.GetValue(r, 2).AsDouble(), it->second.second);
  }
}

}  // namespace
}  // namespace uot

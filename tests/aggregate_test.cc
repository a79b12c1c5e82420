// Hash-aggregation oracle tests: the partitioned aggregation, run through
// the engine in vectorized and fused mode on 1 and 4 workers, must produce
// exactly the rows of a row-by-row std::map reference computed here,
// compared through CanonicalRows. Aggregated values are multiples of 1/4
// far below 2^53, so every sum is exact in any merge order and the
// comparison can be byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exec/query_executor.h"
#include "expr/predicate.h"
#include "expr/projection.h"
#include "operators/aggregate_operator.h"
#include "plan/plan_builder.h"
#include "plan/query_plan.h"
#include "storage/insert_destination.h"
#include "storage/storage_manager.h"
#include "test_util.h"
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
  row.s = "s" + std::to_string(id % 8);
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

TEST(AggStateTest, SumIsBitIdenticalForAnySplitAndMergeOrder) {
  // One multiset of TPC-H-like revenue terms,
  // extendedprice * (1 - discount) * (1 + tax), whose sum needs every
  // mantissa bit. Each trial shuffles it, splits it into 2-16 partials at
  // random cuts (one per work order), accumulates each partial in its
  // order and merges the partials in a random order; the compensated sum
  // must not change in its last bit.
  testing::FuzzRng rng(19);
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
    std::vector<AggState> states(cuts.size() - 1);
    for (size_t p = 0; p + 1 < cuts.size(); ++p) {
      for (size_t i = cuts[p]; i < cuts[p + 1]; ++i) states[p].Add(values[i]);
    }
    shuffle(&states);
    AggState total;
    for (const AggState& state : states) total.Merge(state);
    const double sum = total.Total();
    uint64_t bits = 0;
    std::memcpy(&bits, &sum, 8);
    if (trial == 0) first_bits = bits;
    ASSERT_EQ(bits, first_bits) << "trial " << trial << ": " << sum;
  }
}

TEST(GroupTableTest, ResetEmptiesASparseTable) {
  // 10k groups size the slot array; a later Reset with 100 groups takes
  // the sparse path, which must empty exactly the slots those groups used.
  GroupTable table;
  table.Reset(1);
  for (uint64_t k = 0; k < 10000; ++k) {
    table.FindOrInsert({k, 0, 0}, GroupTable::Hash({k, 0, 0}));
  }
  table.Reset(1);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 100; ++k) {
      const GroupKey key{k * 7 + 3, 0, 0};
      bool inserted = false;
      ASSERT_EQ(table.FindOrInsert(key, GroupTable::Hash(key), &inserted), k);
      ASSERT_TRUE(inserted) << "round " << round << " key " << k;
    }
    ASSERT_EQ(table.size(), 100u);
    table.Reset(1);
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
  AggregateOperator op("agg", input, {0}, std::move(aggs), nullptr, &dest);

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

  auto add = [](GroupTable* t, const GroupKey& key, double v) {
    AggState* s = t->states(t->FindOrInsert(key, GroupTable::Hash(key)));
    ++s[0].count;
    ++s[1].count;
    s[1].Add(v);
  };
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    GroupTable partial;
    while (!go.load()) std::this_thread::yield();
    // Batches of 500 new keys: every merge grows the hot partition.
    for (size_t begin = 0; begin < growing.size(); begin += 500) {
      partial.Reset(2);
      for (size_t i = begin; i < begin + 500; ++i) add(&partial, growing[i], 1);
      op.MergePartial(partial);
    }
  });
  for (int t = 0; t < kMergers; ++t) {
    threads.emplace_back([&] {
      GroupTable partial;
      while (!go.load()) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        partial.Reset(2);
        for (const GroupKey& k : shared_hot) add(&partial, k, 0.5);
        for (const GroupKey& k : shared_cold) add(&partial, k, 0.25);
        op.MergePartial(partial);
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  op.Finish();

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

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "exec/query_executor.h"
#include "tpch/tpch_analysis.h"
#include "test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"
#include "types/date.h"

namespace uot {
namespace {

/// Shared tiny database (generation is the expensive part).
class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    storage_ = new StorageManager();
    db_ = new TpchDatabase(storage_);
    TpchConfig config;
    config.scale_factor = 0.004;
    config.block_bytes = 64 * 1024;
    config.layout = Layout::kColumnStore;
    db_->Generate(config);
  }
  static void TearDownTestSuite() {
    delete db_;
    delete storage_;
    db_ = nullptr;
    storage_ = nullptr;
  }

  static StorageManager* storage_;
  static TpchDatabase* db_;
};

StorageManager* TpchTest::storage_ = nullptr;
TpchDatabase* TpchTest::db_ = nullptr;

TEST_F(TpchTest, CardinalitiesScale) {
  EXPECT_EQ(db_->nation().NumRows(), 25u);
  EXPECT_EQ(db_->region().NumRows(), 5u);
  EXPECT_EQ(db_->orders().NumRows(), 6000u);     // 1.5M * 0.004
  EXPECT_EQ(db_->customer().NumRows(), 600u);
  EXPECT_EQ(db_->part().NumRows(), 800u);
  EXPECT_EQ(db_->partsupp().NumRows(), 4 * 800u);
  // ~4 lineitems per order.
  EXPECT_GT(db_->lineitem().NumRows(), 3 * db_->orders().NumRows());
  EXPECT_LT(db_->lineitem().NumRows(), 5 * db_->orders().NumRows());
}

TEST_F(TpchTest, GenerationIsDeterministic) {
  StorageManager storage2;
  TpchDatabase db2(&storage2);
  db2.Generate(db_->config());
  EXPECT_EQ(db2.lineitem().NumRows(), db_->lineitem().NumRows());
  EXPECT_EQ(CanonicalRows(db2.nation()), CanonicalRows(db_->nation()));
  EXPECT_EQ(db2.orders().GetValue(100, tpch::kOTotalprice).AsDouble(),
            db_->orders().GetValue(100, tpch::kOTotalprice).AsDouble());
}

TEST_F(TpchTest, LineitemDateInvariants) {
  const Table& l = db_->lineitem();
  const uint64_t rows = l.NumRows();
  for (uint64_t r = 0; r < rows; r += 97) {
    const int32_t ship = l.GetValue(r, tpch::kLShipdate).AsInt32();
    const int32_t receipt = l.GetValue(r, tpch::kLReceiptdate).AsInt32();
    ASSERT_LT(ship, receipt);
    ASSERT_GE(ship, MakeDate(1992, 1, 2));
    ASSERT_LE(receipt, MakeDate(1999, 1, 1));
  }
}

TEST_F(TpchTest, ForeignKeysResolve) {
  const Table& o = db_->orders();
  const int64_t num_cust = static_cast<int64_t>(db_->customer().NumRows());
  for (uint64_t r = 0; r < o.NumRows(); r += 131) {
    const int32_t custkey = o.GetValue(r, tpch::kOCustkey).AsInt32();
    ASSERT_GE(custkey, 1);
    ASSERT_LE(custkey, num_cust);
  }
  const Table& l = db_->lineitem();
  const int64_t num_part = static_cast<int64_t>(db_->part().NumRows());
  const int64_t num_supp = static_cast<int64_t>(db_->supplier().NumRows());
  for (uint64_t r = 0; r < l.NumRows(); r += 203) {
    ASSERT_LE(l.GetValue(r, tpch::kLPartkey).AsInt32(), num_part);
    ASSERT_LE(l.GetValue(r, tpch::kLSuppkey).AsInt32(), num_supp);
  }
}

TEST_F(TpchTest, NationRegionMapping) {
  EXPECT_EQ(db_->nation().GetValue(tpch::kNationFrance, tpch::kNName)
                .AsChar(),
            "FRANCE");
  EXPECT_EQ(db_->nation().GetValue(tpch::kNationSaudiArabia, tpch::kNName)
                .AsChar(),
            "SAUDI ARABIA");
  EXPECT_EQ(db_->region().GetValue(tpch::kRegionAsia, tpch::kRName).AsChar(),
            "ASIA");
  // France is in EUROPE (region 3).
  EXPECT_EQ(db_->nation()
                .GetValue(tpch::kNationFrance, tpch::kNRegionkey)
                .AsInt32(),
            3);
}

TEST_F(TpchTest, TableLookupByName) {
  EXPECT_EQ(db_->table("lineitem"), &db_->lineitem());
  EXPECT_EQ(db_->table("region"), &db_->region());
  EXPECT_EQ(db_->table("bogus"), nullptr);
}

TEST_F(TpchTest, SupportedQueriesListMatchesPaper) {
  const std::set<int> queries(SupportedTpchQueries().begin(),
                              SupportedTpchQueries().end());
  // All 22 TPC-H queries except Q16 (3-column grouping + DISTINCT agg,
  // see DESIGN.md), covering every query the paper's figures show.
  for (int q = 1; q <= 22; ++q) {
    if (q == 16) {
      EXPECT_FALSE(IsTpchQuerySupported(q));
    } else {
      EXPECT_TRUE(queries.count(q)) << "Q" << q;
      EXPECT_TRUE(IsTpchQuerySupported(q));
    }
  }
  EXPECT_FALSE(IsTpchQuerySupported(0));
  EXPECT_FALSE(IsTpchQuerySupported(23));
}

TEST_F(TpchTest, AllQueriesExecuteAndProduceStableResults) {
  TpchPlanConfig plan_config;
  plan_config.block_bytes = 32 * 1024;
  for (int query : SupportedTpchQueries()) {
    auto plan = BuildTpchPlan(query, *db_, plan_config);
    ExecConfig exec;
    exec.num_workers = 2;
    exec.uot = UotPolicy::LowUot(1);
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    EXPECT_GT(stats.records.size(), 0u) << "Q" << query;
    ASSERT_NE(plan->result_table(), nullptr) << "Q" << query;
    // Deterministic reruns.
    auto plan2 = BuildTpchPlan(query, *db_, plan_config);
    QueryExecutor::Execute(plan2.get(), exec);
    EXPECT_TRUE(testing::CanonicalRowsNear(
        CanonicalRows(*plan->result_table()),
        CanonicalRows(*plan2->result_table())))
        << "Q" << query;
  }
}

struct TpchConfigParam {
  uint64_t uot_blocks;  // 0 = whole table
  int workers;
};

class TpchUotInvarianceTest
    : public ::testing::TestWithParam<TpchConfigParam> {};

TEST_P(TpchUotInvarianceTest, ResultsIdenticalAcrossUotAndThreads) {
  // The core correctness property behind the whole paper: the UoT value is
  // a scheduling knob and must never change query results.
  static StorageManager storage;
  static TpchDatabase* db = [] {
    auto* d = new TpchDatabase(&storage);
    TpchConfig config;
    config.scale_factor = 0.002;
    config.block_bytes = 32 * 1024;
    d->Generate(config);
    return d;
  }();
  static std::map<int, std::string>* expected = [] {
    auto* m = new std::map<int, std::string>();
    TpchPlanConfig plan_config;
    plan_config.block_bytes = 16 * 1024;
    for (int query : SupportedTpchQueries()) {
      auto plan = BuildTpchPlan(query, *db, plan_config);
      ExecConfig exec;
      exec.num_workers = 1;
      exec.uot = UotPolicy::HighUot();
      QueryExecutor::Execute(plan.get(), exec);
      (*m)[query] = CanonicalRows(*plan->result_table());
    }
    return m;
  }();

  const TpchConfigParam p = GetParam();
  TpchPlanConfig plan_config;
  plan_config.block_bytes = 16 * 1024;
  for (int query : SupportedTpchQueries()) {
    auto plan = BuildTpchPlan(query, *db, plan_config);
    ExecConfig exec;
    exec.num_workers = p.workers;
    exec.uot = p.uot_blocks == 0 ? UotPolicy::HighUot()
                                 : UotPolicy::LowUot(p.uot_blocks);
    QueryExecutor::Execute(plan.get(), exec);
    EXPECT_TRUE(testing::CanonicalRowsNear(
        CanonicalRows(*plan->result_table()), expected->at(query)))
        << "Q" << query << " uot=" << p.uot_blocks << " w=" << p.workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TpchUotInvarianceTest,
    ::testing::Values(TpchConfigParam{1, 1}, TpchConfigParam{1, 4},
                      TpchConfigParam{2, 3}, TpchConfigParam{8, 2},
                      TpchConfigParam{0, 4}),
    [](const auto& info) {
      return "uot" + std::to_string(info.param.uot_blocks) + "_w" +
             std::to_string(info.param.workers);
    });

TEST_F(TpchTest, FixedPolicyMatchesScalarUotAcrossSuite) {
  // Backward-compatibility gate: routing the scalar ExecConfig::uot through
  // the EdgeUotPolicy interface (the default FixedUotPolicy) must leave
  // every query's result unchanged across the whole UoT spectrum, and both
  // runs must transfer every edge at exactly that UoT.
  TpchPlanConfig plan_config;
  plan_config.block_bytes = 16 * 1024;
  for (uint64_t blocks : {uint64_t{1}, uint64_t{4},
                          UotPolicy::kWholeTable}) {
    const UotPolicy uot(blocks);
    for (int query : SupportedTpchQueries()) {
      auto scalar_plan = BuildTpchPlan(query, *db_, plan_config);
      ExecConfig scalar;
      scalar.num_workers = 2;
      scalar.uot = uot;
      const ExecutionStats scalar_stats =
          QueryExecutor::Execute(scalar_plan.get(), scalar);

      auto policy_plan = BuildTpchPlan(query, *db_, plan_config);
      ExecConfig via_policy;
      via_policy.num_workers = 2;
      via_policy.uot_policy = std::make_shared<FixedUotPolicy>(uot);
      const ExecutionStats policy_stats =
          QueryExecutor::Execute(policy_plan.get(), via_policy);

      EXPECT_TRUE(testing::CanonicalRowsNear(
          CanonicalRows(*policy_plan->result_table()),
          CanonicalRows(*scalar_plan->result_table())))
          << "Q" << query << " " << uot.ToString();
      ASSERT_EQ(policy_stats.edges.size(), scalar_stats.edges.size());
      for (const ExecutionStats* stats : {&scalar_stats, &policy_stats}) {
        for (const EdgeStats& edge : stats->edges) {
          EXPECT_TRUE(testing::TransfersMatchUot(edge, blocks))
              << "Q" << query << " " << uot.ToString() << " "
              << stats->config_summary;
        }
      }
    }
  }
}

TEST_F(TpchTest, RowStoreAndColumnStoreAgree) {
  StorageManager storage_row;
  TpchDatabase db_row(&storage_row);
  TpchConfig config = db_->config();
  config.scale_factor = 0.002;
  config.layout = Layout::kRowStore;
  db_row.Generate(config);

  StorageManager storage_col;
  TpchDatabase db_col(&storage_col);
  config.layout = Layout::kColumnStore;
  db_col.Generate(config);

  TpchPlanConfig plan_config;
  plan_config.block_bytes = 32 * 1024;
  ExecConfig exec;
  exec.num_workers = 2;
  for (int query : {1, 6, 13, 14, 19}) {
    auto plan_row = BuildTpchPlan(query, db_row, plan_config);
    auto plan_col = BuildTpchPlan(query, db_col, plan_config);
    QueryExecutor::Execute(plan_row.get(), exec);
    QueryExecutor::Execute(plan_col.get(), exec);
    EXPECT_TRUE(testing::CanonicalRowsNear(
        CanonicalRows(*plan_row->result_table()),
        CanonicalRows(*plan_col->result_table())))
        << "Q" << query;
  }
}

TEST_F(TpchTest, Q6MatchesDirectComputation) {
  TpchPlanConfig plan_config;
  auto plan = BuildTpchPlan(6, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  ASSERT_EQ(plan->result_table()->NumRows(), 1u);
  const double engine_value = plan->result_table()->GetValue(0, 0).AsDouble();

  // Independent scalar recomputation via the boxed-value API.
  const Table& l = db_->lineitem();
  double expected = 0;
  for (uint64_t r = 0; r < l.NumRows(); ++r) {
    const int32_t ship = l.GetValue(r, tpch::kLShipdate).AsInt32();
    const double disc = l.GetValue(r, tpch::kLDiscount).AsDouble();
    const double qty = l.GetValue(r, tpch::kLQuantity).AsDouble();
    if (ship >= MakeDate(1994, 1, 1) && ship < MakeDate(1995, 1, 1) &&
        disc >= 0.05 && disc <= 0.07 && qty < 24.0) {
      expected += l.GetValue(r, tpch::kLExtendedprice).AsDouble() * disc;
    }
  }
  EXPECT_NEAR(engine_value, expected, 1e-6 * std::max(1.0, expected));
}

TEST_F(TpchTest, Q1AggregatesMatchDirectComputation) {
  TpchPlanConfig plan_config;
  auto plan = BuildTpchPlan(1, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  const Table& result = *plan->result_table();
  ASSERT_LE(result.NumRows(), 6u);  // <= #(flag,status) combinations
  ASSERT_GE(result.NumRows(), 3u);

  // Row counts across groups must equal the filtered input count.
  const Table& l = db_->lineitem();
  const int32_t cutoff = MakeDate(1998, 12, 1) - 90;
  uint64_t expected_rows = 0;
  for (uint64_t r = 0; r < l.NumRows(); ++r) {
    if (l.GetValue(r, tpch::kLShipdate).AsInt32() <= cutoff) ++expected_rows;
  }
  int64_t got_rows = 0;
  const int count_col = result.schema().ColumnIndex("count_order");
  ASSERT_GE(count_col, 0);
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    got_rows += result.GetValue(r, count_col).AsInt64();
  }
  EXPECT_EQ(static_cast<uint64_t>(got_rows), expected_rows);
}

TEST_F(TpchTest, ReductionAnalysisMatchesPaperBallpark) {
  // Shapes from Tables III/IV (generated data, so generous tolerances).
  const auto lineitem = AnalyzeLineitemReductions(*db_);
  ASSERT_EQ(lineitem.size(), 4u);
  for (const ReductionRow& r : lineitem) {
    EXPECT_GT(r.input_rows, 0u);
    EXPECT_GE(r.selectivity, 0.0);
    EXPECT_LE(r.selectivity, 1.0);
    EXPECT_GT(r.projectivity, 0.05);
    EXPECT_LT(r.projectivity, 0.25);
    EXPECT_NEAR(r.total, r.selectivity * r.projectivity, 1e-12);
  }
  // Q3: ~half the lineitems ship after 1995-03-15.
  EXPECT_NEAR(lineitem[0].selectivity, 0.5, 0.15);
  // Q19 is highly selective (a few percent).
  EXPECT_LT(lineitem[3].selectivity, 0.10);

  const auto orders = AnalyzeOrdersReductions(*db_);
  ASSERT_EQ(orders.size(), 6u);
  // Q4: one quarter of ~6.5 years.
  EXPECT_NEAR(orders[1].selectivity, 0.038, 0.02);
  // Q21: about half the orders have status F.
  EXPECT_NEAR(orders[5].selectivity, 0.49, 0.15);
  // The paper's takeaway: the average total reduction is small (<10%).
  double avg_total = 0;
  for (const ReductionRow& r : orders) avg_total += r.total;
  EXPECT_LT(avg_total / orders.size(), 0.10);

  EXPECT_FALSE(RenderReductionTable(orders, "orders").empty());
}

TEST_F(TpchTest, Q2WinnersHaveMinimumCost) {
  TpchPlanConfig plan_config;
  auto plan = BuildTpchPlan(2, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  const Table& result = *plan->result_table();
  // result: [ps_partkey, ps_suppkey, ps_supplycost]
  // Every winner's cost must be the minimum among result rows of the same
  // part (equal-cost ties may produce several rows per part).
  std::map<int32_t, double> min_cost;
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    const int32_t part = result.GetValue(r, 0).AsInt32();
    const double cost = result.GetValue(r, 2).AsDouble();
    auto [it, inserted] = min_cost.try_emplace(part, cost);
    if (!inserted) {
      EXPECT_DOUBLE_EQ(it->second, cost) << "part " << part;
    }
  }
}

TEST_F(TpchTest, Q12CountsMatchDirectComputation) {
  TpchPlanConfig plan_config;
  auto plan = BuildTpchPlan(12, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  const Table& result = *plan->result_table();
  // result: [l_shipmode, high_line_count, low_line_count]
  int64_t total = 0;
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    total += static_cast<int64_t>(result.GetValue(r, 1).AsDouble() +
                                  result.GetValue(r, 2).AsDouble() + 0.5);
  }
  // Direct recount of qualifying lineitems.
  const Table& l = db_->lineitem();
  int64_t expected = 0;
  for (uint64_t r = 0; r < l.NumRows(); ++r) {
    const std::string mode = l.GetValue(r, tpch::kLShipmode).AsChar();
    if (mode != "MAIL" && mode != "SHIP") continue;
    const int32_t commit = l.GetValue(r, tpch::kLCommitdate).AsInt32();
    const int32_t receipt = l.GetValue(r, tpch::kLReceiptdate).AsInt32();
    const int32_t ship = l.GetValue(r, tpch::kLShipdate).AsInt32();
    if (commit < receipt && ship < commit &&
        receipt >= MakeDate(1994, 1, 1) && receipt < MakeDate(1995, 1, 1)) {
      ++expected;
    }
  }
  EXPECT_EQ(total, expected);
}

TEST_F(TpchTest, Q18RowsExceedQuantityThreshold) {
  TpchPlanConfig plan_config;
  auto plan = BuildTpchPlan(18, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  const Table& result = *plan->result_table();
  // result: [o_orderkey, o_custkey, o_totalprice, o_orderdate, sum_qty]
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    EXPECT_GT(result.GetValue(r, 4).AsDouble(), 300.0);
  }
}

TEST_F(TpchTest, Q17MatchesDirectComputation) {
  TpchPlanConfig plan_config;
  auto plan = BuildTpchPlan(17, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  ASSERT_EQ(plan->result_table()->NumRows(), 1u);
  const double engine = plan->result_table()->GetValue(0, 0).AsDouble();

  // Brute-force recomputation.
  const Table& l = db_->lineitem();
  const Table& p = db_->part();
  std::set<int32_t> parts;
  for (uint64_t r = 0; r < p.NumRows(); ++r) {
    if (p.GetValue(r, tpch::kPBrand).AsChar() == "Brand#23" &&
        p.GetValue(r, tpch::kPContainer).AsChar() == "MED BOX") {
      parts.insert(p.GetValue(r, tpch::kPPartkey).AsInt32());
    }
  }
  std::map<int32_t, std::pair<double, int64_t>> qty;  // part -> (sum, n)
  for (uint64_t r = 0; r < l.NumRows(); ++r) {
    auto& [sum, n] = qty[l.GetValue(r, tpch::kLPartkey).AsInt32()];
    sum += l.GetValue(r, tpch::kLQuantity).AsDouble();
    ++n;
  }
  double expected = 0;
  for (uint64_t r = 0; r < l.NumRows(); ++r) {
    const int32_t part = l.GetValue(r, tpch::kLPartkey).AsInt32();
    if (parts.count(part) == 0) continue;
    const auto& [sum, n] = qty[part];
    if (l.GetValue(r, tpch::kLQuantity).AsDouble() <
        0.2 * sum / static_cast<double>(n)) {
      expected += l.GetValue(r, tpch::kLExtendedprice).AsDouble();
    }
  }
  expected /= 7.0;
  EXPECT_NEAR(engine, expected, 1e-6 * std::max(1.0, expected));
}

TEST_F(TpchTest, Q20SuppliersAreCanadian) {
  TpchPlanConfig plan_config;
  auto plan = BuildTpchPlan(20, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  const Table& result = *plan->result_table();
  const Table& s = db_->supplier();
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    const int32_t suppkey = result.GetValue(r, 0).AsInt32();
    EXPECT_EQ(s.GetValue(static_cast<uint64_t>(suppkey - 1),
                         tpch::kSNationkey)
                  .AsInt32(),
              tpch::kNationCanada);
  }
}

TEST_F(TpchTest, Q22TargetsCustomersWithoutOrders) {
  // A third of the customers have no orders (spec custkey rule), so Q22
  // now returns a non-trivial population.
  TpchPlanConfig plan_config;
  auto plan = BuildTpchPlan(22, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  const Table& result = *plan->result_table();
  int64_t total = 0;
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    total += result.GetValue(r, 1).AsInt64();
  }
  EXPECT_GT(total, 0);
}

TEST_F(TpchTest, Q14PromoShareIsPlausible) {
  TpchPlanConfig plan_config;
  auto plan = BuildTpchPlan(14, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  ASSERT_EQ(plan->result_table()->NumRows(), 1u);
  const double promo = plan->result_table()->GetValue(0, 0).AsDouble();
  EXPECT_GE(promo, 0.0);
}

TEST_F(TpchTest, Q22CountsCustomersWithoutOrders) {
  TpchPlanConfig plan_config;
  auto plan = BuildTpchPlan(22, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  const Table& result = *plan->result_table();
  int64_t total = 0;
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    total += result.GetValue(r, 1).AsInt64();
  }
  EXPECT_LT(total, static_cast<int64_t>(db_->customer().NumRows()));
}

}  // namespace
}  // namespace uot

// The query front end (src/server): parser, plan compiler, plan+annotation
// cache, tenant admission classes, and the text protocol. The load-bearing
// assertions are the cache-correctness ones from the paper's serving story:
// repeat queries must return byte-identical rows while provably skipping
// cost-model evaluation, and cached annotations must be re-chosen whenever
// the world they were chosen in (cardinalities, exec knobs) drifts.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/query_executor.h"
#include "plan/plan_builder.h"
#include "server/frontend.h"
#include "server/plan_cache.h"
#include "server/plan_compiler.h"
#include "server/sql_parser.h"
#include "server/text_server.h"
#include "test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace uot {
namespace server {
namespace {

using uot::testing::CanonicalRowsNear;
using uot::testing::MakeKvTable;

// ---------------------------------------------------------------------------
// SQL parser

TEST(SqlParserTest, ParsesSelectJoinWhereGroupBy) {
  SelectStatement stmt;
  ASSERT_TRUE(ParseSelect("SELECT fact.k, SUM(fact.v) FROM fact "
                          "JOIN dim ON fact.k = dim.k "
                          "WHERE dim.v < 3 AND fact.v >= 10.5 "
                          "GROUP BY fact.k",
                          &stmt)
                  .ok());
  ASSERT_EQ(stmt.items.size(), 2u);
  EXPECT_FALSE(stmt.items[0].is_aggregate);
  EXPECT_EQ(stmt.items[0].column, "fact.k");
  EXPECT_TRUE(stmt.items[1].is_aggregate);
  EXPECT_EQ(stmt.items[1].fn, AggFn::kSum);
  EXPECT_EQ(stmt.table, "fact");
  ASSERT_TRUE(stmt.has_join);
  EXPECT_EQ(stmt.join.table, "dim");
  EXPECT_EQ(stmt.join.left_column, "fact.k");
  EXPECT_EQ(stmt.join.right_column, "dim.k");
  ASSERT_EQ(stmt.where.size(), 2u);
  EXPECT_EQ(stmt.where[0].op, CompareOp::kLt);
  EXPECT_EQ(stmt.where[0].value.kind, SqlValue::Kind::kInt);
  EXPECT_EQ(stmt.where[1].op, CompareOp::kGe);
  EXPECT_EQ(stmt.where[1].value.kind, SqlValue::Kind::kDouble);
  ASSERT_EQ(stmt.group_by.size(), 1u);
  EXPECT_EQ(stmt.group_by[0], "fact.k");
  EXPECT_EQ(stmt.Tables(), (std::vector<std::string>{"fact", "dim"}));
}

TEST(SqlParserTest, TemplateKeyCanonicalizesLiteralsAndCase) {
  SelectStatement a, b, c;
  ASSERT_TRUE(
      ParseSelect("select k from kv where v < 10 and k = 3", &a).ok());
  ASSERT_TRUE(
      ParseSelect("SELECT  K   FROM kv  WHERE v < 99.5 AND k = 7", &b).ok());
  ASSERT_TRUE(ParseSelect("select k from kv where v < ? and k = ?", &c).ok());
  // Literal values, whitespace, and case never reach the key; placeholders
  // canonicalize to the same `?` a literal does.
  EXPECT_EQ(a.TemplateKey(), b.TemplateKey());
  EXPECT_EQ(a.TemplateKey(), c.TemplateKey());
  EXPECT_EQ(c.num_params, 2);
  EXPECT_EQ(c.where[0].value.param_index, 0);
  EXPECT_EQ(c.where[1].value.param_index, 1);

  SelectStatement d;
  ASSERT_TRUE(ParseSelect("select k from kv where v > 10", &d).ok());
  EXPECT_NE(a.TemplateKey(), d.TemplateKey());  // operator is structural
}

TEST(SqlParserTest, RejectsMalformedStatements) {
  SelectStatement stmt;
  EXPECT_FALSE(ParseSelect("select from kv", &stmt).ok());
  EXPECT_FALSE(ParseSelect("select k kv", &stmt).ok());
  EXPECT_FALSE(ParseSelect("select k from kv where", &stmt).ok());
  EXPECT_FALSE(ParseSelect("select k from kv where v <", &stmt).ok());
  EXPECT_FALSE(ParseSelect("select frob(k) from kv", &stmt).ok());
  EXPECT_FALSE(ParseSelect("select k from kv group by", &stmt).ok());
  EXPECT_FALSE(ParseSelect("select k from kv trailing junk", &stmt).ok());
}

TEST(SqlParserTest, RejectsOutOfRangeNumericLiterals) {
  // stoll/stod overflow must surface as a parse error, not an exception
  // that escapes into the serving thread and kills the process.
  SelectStatement stmt;
  EXPECT_FALSE(
      ParseSelect("select k from kv where k = 99999999999999999999", &stmt)
          .ok());
  const std::string huge(400, '9');
  EXPECT_FALSE(
      ParseSelect("select k from kv where v = " + huge + ".5", &stmt).ok());
  std::vector<SqlValue> values;
  EXPECT_FALSE(ParseValueList("99999999999999999999", &values).ok());
}

TEST(SqlParserTest, ParsesValueLists) {
  std::vector<SqlValue> values;
  ASSERT_TRUE(ParseValueList("1, -2.5, 'x y'", &values).ok());
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].kind, SqlValue::Kind::kInt);
  EXPECT_EQ(values[0].int_value, 1);
  EXPECT_EQ(values[1].kind, SqlValue::Kind::kDouble);
  EXPECT_DOUBLE_EQ(values[1].double_value, -2.5);
  EXPECT_EQ(values[2].kind, SqlValue::Kind::kString);
  EXPECT_EQ(values[2].string_value, "x y");

  values.clear();
  ASSERT_TRUE(ParseValueList("", &values).ok());
  EXPECT_TRUE(values.empty());
  EXPECT_FALSE(ParseValueList("1, ?", &values).ok());
}

// ---------------------------------------------------------------------------
// Plan cache (unit)

PlanCacheEntry MakeEntry(const std::string& fingerprint, int radix) {
  PlanCacheEntry entry;
  entry.fingerprint = fingerprint;
  entry.radix_bits = radix;
  entry.choices.push_back(UotChoice{});
  return entry;
}

TEST(PlanCacheTest, HitMissAndFingerprintInvalidation) {
  PlanCache cache(4);
  PlanCacheEntry out;
  EXPECT_EQ(cache.Lookup("q1", "fp-a", &out), PlanCache::Outcome::kMiss);

  cache.Insert("q1", MakeEntry("fp-a", 3));
  EXPECT_EQ(cache.Lookup("q1", "fp-a", &out), PlanCache::Outcome::kHit);
  EXPECT_EQ(out.radix_bits, 3);

  // A fingerprint mismatch (cardinality or knob drift) erases the entry:
  // the stale annotations must never be re-applied.
  EXPECT_EQ(cache.Lookup("q1", "fp-b", &out),
            PlanCache::Outcome::kInvalidated);
  EXPECT_EQ(cache.Lookup("q1", "fp-b", &out), PlanCache::Outcome::kMiss);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  PlanCacheEntry out;
  cache.Insert("a", MakeEntry("fp", 0));
  cache.Insert("b", MakeEntry("fp", 0));
  EXPECT_EQ(cache.Lookup("a", "fp", &out), PlanCache::Outcome::kHit);
  cache.Insert("c", MakeEntry("fp", 0));  // evicts b (LRU), not a
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup("b", "fp", &out), PlanCache::Outcome::kMiss);
  EXPECT_EQ(cache.Lookup("a", "fp", &out), PlanCache::Outcome::kHit);
  EXPECT_EQ(cache.Lookup("c", "fp", &out), PlanCache::Outcome::kHit);
}

TEST(PlanCacheTest, CapacityZeroDisablesCaching) {
  PlanCache cache(0);
  PlanCacheEntry out;
  cache.Insert("a", MakeEntry("fp", 0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup("a", "fp", &out), PlanCache::Outcome::kMiss);
}

// ---------------------------------------------------------------------------
// Front end over a small synthetic catalog

class FrontEndTest : public ::testing::Test {
 protected:
  FrontEndTest() : catalog_(&storage_) {
    // fact: 200 rows, k = i % 10, v = i. dim: 5 rows, unique k = 0..4.
    fact_ = MakeKvTable(&storage_, "fact", 200, 10);
    dim_ = MakeKvTable(&storage_, "dim", 5, 5);
    catalog_.RegisterTable("fact", fact_.get());
    catalog_.RegisterTable("dim", dim_.get());
  }

  static FrontEndConfig SmallConfig() {
    FrontEndConfig config;
    config.engine.num_workers = 2;
    config.chooser.threads = 2;
    return config;
  }

  StorageManager storage_;
  Catalog catalog_;
  std::unique_ptr<Table> fact_;
  std::unique_ptr<Table> dim_;
};

TEST_F(FrontEndTest, AggregateSelectMatchesHandBuiltPlan) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  const Response resp = frontend.Handle(
      {"select k, sum(v) from fact where v >= 100 group by k", "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.row_count, 10u);
  EXPECT_EQ(resp.cache, Response::Cache::kMiss);

  // The reference: the same query hand-assembled with PlanBuilder and run
  // through the bare executor.
  PlanBuilder builder(&storage_, PlanBuilderConfig{});
  auto src = builder.Select(
      "sel", PlanBuilder::Base(*fact_),
      Cmp(CompareOp::kGe, Col(1, Type::Double()), LitDouble(100.0)),
      Projection::Identity(fact_->schema(), {0, 1}));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum_v"});
  src = builder.Aggregate("agg", src, {0}, std::move(aggs));
  auto plan = builder.Finish(src);
  QueryExecutor::Execute(plan.get(), ExecConfig{});
  EXPECT_TRUE(CanonicalRowsNear(resp.rows_csv,
                                CanonicalRows(*plan->result_table())));
}

TEST_F(FrontEndTest, BareSelectColumnsMustBeGroupKeys) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  // v is neither a group key nor inside an aggregate: returning some other
  // column's values in its position would be silently wrong.
  const Response resp = frontend.Handle(
      {"select v, sum(v) from fact group by k", "default"});
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("GROUP BY"), std::string::npos) << resp.error;
}

TEST_F(FrontEndTest, AggregateOutputFollowsSelectListOrder) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  // Aggregate before group key: the result must be reordered to match the
  // select list, not left in the operator's native [keys, aggs] order.
  const Response resp = frontend.Handle(
      {"select sum(v), k from fact group by k", "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.row_count, 10u);

  PlanBuilder builder(&storage_, PlanBuilderConfig{});
  auto src = builder.Select(
      "sel", PlanBuilder::Base(*fact_), std::make_unique<TruePredicate>(),
      Projection::Identity(fact_->schema(), {0, 1}));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum_v"});
  src = builder.Aggregate("agg", src, {0}, std::move(aggs));
  src = builder.Select("swap", src, std::make_unique<TruePredicate>(),
                       Projection::Identity(builder.SchemaOf(src), {1, 0}));
  auto plan = builder.Finish(src);
  QueryExecutor::Execute(plan.get(), ExecConfig{});
  EXPECT_TRUE(CanonicalRowsNear(resp.rows_csv,
                                CanonicalRows(*plan->result_table())));
}

TEST_F(FrontEndTest, UnselectedGroupKeysAreProjectedAway) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  const Response resp =
      frontend.Handle({"select sum(v) from fact group by k", "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.row_count, 10u);
  // One column per row: the group key k is grouped on but not returned.
  for (size_t pos = 0; pos < resp.rows_csv.size();) {
    const size_t end = resp.rows_csv.find('\n', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string line = resp.rows_csv.substr(pos, end - pos);
    EXPECT_EQ(line.find(','), std::string::npos) << line;
    pos = end + 1;
  }
}

TEST_F(FrontEndTest, JoinMatchesHandBuiltPlan) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  const Response resp = frontend.Handle(
      {"select fact.v, dim.v from fact join dim on fact.k = dim.k "
       "where dim.v < 3",
       "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  // k in {0,1,2} -> 20 fact rows each, one dim match each.
  EXPECT_EQ(resp.row_count, 60u);

  PlanBuilder builder(&storage_, PlanBuilderConfig{});
  auto dim_src = builder.Select(
      "dimsel", PlanBuilder::Base(*dim_),
      Cmp(CompareOp::kLt, Col(1, Type::Double()), LitDouble(3.0)),
      Projection::Identity(dim_->schema(), {0, 1}));
  BuildHashOperator* build = builder.Build("build", dim_src, {0}, {0, 1});
  auto probed = builder.Probe("probe", PlanBuilder::Base(*fact_), build, {0},
                              {1});
  // Probe output: fact.v then build payload (dim.k, dim.v); project the
  // two SELECT items.
  auto final_src = builder.Select(
      "proj", probed, std::make_unique<TruePredicate>(),
      Projection::Identity(builder.SchemaOf(probed), {0, 2}));
  auto plan = builder.Finish(final_src);
  QueryExecutor::Execute(plan.get(), ExecConfig{});
  EXPECT_TRUE(CanonicalRowsNear(resp.rows_csv,
                                CanonicalRows(*plan->result_table())));

  // Re-running the join template is a hit with identical bytes.
  const Response again = frontend.Handle(
      {"select fact.v, dim.v from fact join dim on fact.k = dim.k "
       "where dim.v < 3",
       "default"});
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.cache, Response::Cache::kHit);
  EXPECT_EQ(again.rows_csv, resp.rows_csv);
}

TEST_F(FrontEndTest, RepeatQueryHitsCacheAndSkipsModel) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  const std::string sql = "select k, sum(v) from fact group by k";

  const Response first = frontend.Handle({sql, "default"});
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.cache, Response::Cache::kMiss);
  const uint64_t evals_after_miss = frontend.model_evaluations();
  EXPECT_GT(evals_after_miss, 0u);  // the miss paid for ChoosePlan

  for (int i = 0; i < 5; ++i) {
    const Response rep = frontend.Handle({sql, "default"});
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.cache, Response::Cache::kHit);
    EXPECT_EQ(rep.rows_csv, first.rows_csv);  // byte parity, not just near
  }
  // The point of the cache: repeats never touch the cost model.
  EXPECT_EQ(frontend.model_evaluations(), evals_after_miss);
  EXPECT_EQ(frontend.plan_cache()->hits(), 5u);
  EXPECT_EQ(frontend.plan_cache()->misses(), 1u);
}

TEST_F(FrontEndTest, CardinalityChangeInvalidatesCachedAnnotations) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  const std::string sql = "select count(*) from fact";

  Response resp = frontend.Handle({sql, "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.cache, Response::Cache::kMiss);
  EXPECT_EQ(resp.rows_csv, "200\n");

  resp = frontend.Handle({sql, "default"});
  EXPECT_EQ(resp.cache, Response::Cache::kHit);

  // Grow the table: the cardinality component of the fingerprint changes,
  // so the cached UoT choices are stale and must be re-chosen.
  RowBuilder row(&fact_->schema());
  for (int i = 0; i < 40; ++i) {
    row.SetInt32(0, i % 10);
    row.SetDouble(1, 1000.0 + i);
    fact_->AppendRow(row.data());
  }
  const uint64_t evals_before = frontend.model_evaluations();
  resp = frontend.Handle({sql, "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.cache, Response::Cache::kMiss);  // re-chosen, not reused
  EXPECT_EQ(resp.rows_csv, "240\n");
  EXPECT_EQ(frontend.plan_cache()->invalidations(), 1u);
  EXPECT_GT(frontend.model_evaluations(), evals_before);

  resp = frontend.Handle({sql, "default"});
  EXPECT_EQ(resp.cache, Response::Cache::kHit);
  EXPECT_EQ(resp.rows_csv, "240\n");
}

TEST_F(FrontEndTest, KnobChangesProduceDistinctFingerprints) {
  FrontEnd base(SmallConfig(), &catalog_);
  FrontEnd same(SmallConfig(), &catalog_);
  EXPECT_EQ(base.KnobFingerprint(), same.KnobFingerprint());

  FrontEndConfig radix_config = SmallConfig();
  radix_config.plan.join_radix_bits = 4;
  FrontEnd radix_changed(radix_config, &catalog_);
  EXPECT_NE(base.KnobFingerprint(), radix_changed.KnobFingerprint());

  FrontEndConfig budget_config = SmallConfig();
  budget_config.engine.memory_budget_bytes = 64u << 20;
  FrontEnd budget_changed(budget_config, &catalog_);
  EXPECT_NE(base.KnobFingerprint(), budget_changed.KnobFingerprint());
}

TEST_F(FrontEndTest, SetPipelineModeSwitchesConnectionState) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  Response resp = frontend.Handle({"set pipeline_mode fused", "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.set_pipeline_mode, "fused");

  resp = frontend.Handle({"set pipeline_mode = vectorized", "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.set_pipeline_mode, "vectorized");

  EXPECT_FALSE(frontend.Handle({"set pipeline_mode turbo", "default"}).ok);
  EXPECT_FALSE(frontend.Handle({"set pipeline_mode", "default"}).ok);
}

TEST_F(FrontEndTest, FusedModeMatchesVectorizedAndRefingerprints) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  // The mode is a plan-shaping knob, so it must live in the fingerprint:
  // a fused connection must never be served a plan annotated for the
  // vectorized mode (or vice versa).
  EXPECT_NE(frontend.KnobFingerprint(PipelineMode::kVectorized),
            frontend.KnobFingerprint(PipelineMode::kFused));

  const std::string sql =
      "select k, sum(v) from fact where v >= 20 group by k";
  const Response vectorized =
      frontend.Handle({sql, "default", PipelineMode::kVectorized});
  ASSERT_TRUE(vectorized.ok) << vectorized.error;
  EXPECT_EQ(vectorized.cache, Response::Cache::kMiss);

  const Response fused =
      frontend.Handle({sql, "default", PipelineMode::kFused});
  ASSERT_TRUE(fused.ok) << fused.error;
  // Same template, different knob fingerprint: the cached vectorized entry
  // is stale for this connection, not a hit.
  EXPECT_EQ(fused.cache, Response::Cache::kMiss);
  EXPECT_EQ(fused.rows_csv, vectorized.rows_csv);

  const Response fused_again =
      frontend.Handle({sql, "default", PipelineMode::kFused});
  ASSERT_TRUE(fused_again.ok) << fused_again.error;
  EXPECT_EQ(fused_again.cache, Response::Cache::kHit);
  EXPECT_EQ(fused_again.rows_csv, vectorized.rows_csv);
}

TEST_F(FrontEndTest, PreparedStatementsShareOneTemplate) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  Response resp = frontend.Handle(
      {"prepare below as select count(*) from fact where v < ?", "default"});
  ASSERT_TRUE(resp.ok) << resp.error;

  resp = frontend.Handle({"execute below (50)", "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.cache, Response::Cache::kMiss);
  EXPECT_EQ(resp.rows_csv, "50\n");

  // A different parameter value reuses the same template's annotations.
  resp = frontend.Handle({"execute below (120)", "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.cache, Response::Cache::kHit);
  EXPECT_EQ(resp.rows_csv, "120\n");

  // So does the literal form of the same template.
  resp = frontend.Handle(
      {"select count(*) from fact where v < 10", "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.cache, Response::Cache::kHit);
  EXPECT_EQ(resp.rows_csv, "10\n");

  EXPECT_FALSE(frontend.Handle({"execute below (1, 2)", "default"}).ok);
  EXPECT_FALSE(frontend.Handle({"execute below", "default"}).ok);
  EXPECT_FALSE(frontend.Handle({"execute nosuch (1)", "default"}).ok);
}

TEST_F(FrontEndTest, TenantClassesGateAndErrorProperly) {
  FrontEndConfig config = SmallConfig();
  config.engine.memory_budget_bytes = 256u << 20;
  config.engine.admission_classes.push_back(AdmissionClass{"gold", 4, 1.0});
  config.engine.admission_classes.push_back(
      AdmissionClass{"bronze", 1, 0.25});
  FrontEnd frontend(config, &catalog_);

  Response resp = frontend.Handle({"set tenant bronze", "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.set_tenant, "bronze");
  EXPECT_FALSE(frontend.Handle({"set tenant nosuch", "default"}).ok);
  EXPECT_FALSE(
      frontend.Handle({"select count(*) from fact", "nosuch"}).ok);

  // Expected rows, computed serially.
  const Response expected =
      frontend.Handle({"select k, sum(v) from fact group by k", "gold"});
  ASSERT_TRUE(expected.ok) << expected.error;

  // 8 concurrent clients hammering both classes: everything admits
  // (bronze serializes through its single slot but must not starve or
  // deadlock) and every result matches the serial run.
  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = (t % 2 == 0) ? "gold" : "bronze";
      for (int i = 0; i < 5; ++i) {
        const Response r = frontend.Handle(
            {"select k, sum(v) from fact group by k", tenant});
        if (!r.ok || r.rows_csv != expected.rows_csv) {
          ++failures[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int f : failures) EXPECT_EQ(f, 0);
}

TEST_F(FrontEndTest, ShutdownRejectsFurtherRequests) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  ASSERT_TRUE(frontend.Handle({"select count(*) from fact", "default"}).ok);
  frontend.Shutdown();
  const Response resp =
      frontend.Handle({"select count(*) from fact", "default"});
  EXPECT_FALSE(resp.ok);
  frontend.Shutdown();  // idempotent
}

TEST_F(FrontEndTest, StatsAndUnknownStatements) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  ASSERT_TRUE(frontend.Handle({"select count(*) from fact", "default"}).ok);
  const Response stats = frontend.Handle({"stats", "default"});
  ASSERT_TRUE(stats.ok);
  EXPECT_NE(stats.message.find("requests="), std::string::npos);
  EXPECT_NE(stats.message.find("cache_misses=1"), std::string::npos);
  EXPECT_FALSE(frontend.Handle({"frobnicate now", "default"}).ok);
  EXPECT_FALSE(frontend.Handle({"select k from nosuch", "default"}).ok);
  EXPECT_FALSE(frontend.Handle({"tpch 1", "default"}).ok);  // no TPC-H data
}

// ---------------------------------------------------------------------------
// TPC-H: cached vs fresh byte parity across the whole supported suite

class TpchServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    storage_ = new StorageManager();
    db_ = new TpchDatabase(storage_);
    TpchConfig config;
    config.scale_factor = 0.004;
    db_->Generate(config);
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete storage_;
    storage_ = nullptr;
  }

  static StorageManager* storage_;
  static TpchDatabase* db_;
};

StorageManager* TpchServerTest::storage_ = nullptr;
TpchDatabase* TpchServerTest::db_ = nullptr;

TEST_F(TpchServerTest, MinMaxOverEmptyInputReturnZeros) {
  Catalog catalog(storage_);
  catalog.RegisterTpch(db_);
  FrontEndConfig config;
  config.engine.num_workers = 2;
  config.chooser.threads = 2;
  FrontEnd frontend(config, &catalog);
  // No lineitem has a quantity above 50: the scalar aggregate's one row
  // is all zeros, like SUM, AVG and COUNT of nothing.
  const Response resp = frontend.Handle(
      {"select min(l_extendedprice), max(l_extendedprice) from lineitem "
       "where l_quantity > 1000",
       "default"});
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.row_count, 1u);
  EXPECT_EQ(resp.rows_csv, "0,0\n");
}

TEST_F(TpchServerTest, MalformedQueryNumbersAreErrors) {
  Catalog catalog(storage_);
  catalog.RegisterTpch(db_);
  FrontEndConfig config;
  config.engine.num_workers = 2;
  config.chooser.threads = 2;
  FrontEnd frontend(config, &catalog);
  // A trailing suffix or an out-of-range number must not run a query (both
  // of the first two once ran Q3).
  for (const char* stmt : {"tpch 4294967299", "tpch 3abc", "tpch -1"}) {
    const Response resp = frontend.Handle({stmt, "default"});
    EXPECT_FALSE(resp.ok) << stmt;
    EXPECT_EQ(FormatResponse(resp).rfind("ERR ", 0), 0u) << stmt;
    EXPECT_NE(resp.error.find("unsupported TPC-H query"), std::string::npos)
        << stmt << ": " << resp.error;
  }
  EXPECT_TRUE(frontend.Handle({"tpch 3", "default"}).ok);
}

TEST_F(TpchServerTest, CachedPlansMatchFreshPlansByteForByte) {
  Catalog catalog(storage_);
  catalog.RegisterTpch(db_);
  FrontEndConfig config;
  config.engine.num_workers = 2;
  config.chooser.threads = 2;

  // `fresh` never repeats a template, so every run evaluates the model;
  // `cached` runs each template twice and must serve the repeat from the
  // cache with byte-identical rows.
  FrontEnd cached(config, &catalog);
  FrontEnd fresh(config, &catalog);

  for (int query : SupportedTpchQueries()) {
    const std::string stmt = "tpch " + std::to_string(query);
    const Response miss = cached.Handle({stmt, "default"});
    ASSERT_TRUE(miss.ok) << "q" << query << ": " << miss.error;
    EXPECT_EQ(miss.cache, Response::Cache::kMiss);

    const Response hit = cached.Handle({stmt, "default"});
    ASSERT_TRUE(hit.ok) << "q" << query << ": " << hit.error;
    EXPECT_EQ(hit.cache, Response::Cache::kHit);
    EXPECT_EQ(hit.rows_csv, miss.rows_csv) << "q" << query;

    const Response reference = fresh.Handle({stmt, "default"});
    ASSERT_TRUE(reference.ok) << "q" << query << ": " << reference.error;
    EXPECT_EQ(reference.rows_csv, miss.rows_csv) << "q" << query;
  }

  // One miss per template; every repeat skipped the model entirely.
  const size_t n = SupportedTpchQueries().size();
  EXPECT_EQ(cached.plan_cache()->hits(), n);
  EXPECT_EQ(cached.plan_cache()->misses(), n);
  EXPECT_EQ(cached.model_evaluations(), fresh.model_evaluations());

  const uint64_t evals = cached.model_evaluations();
  for (int query : SupportedTpchQueries()) {
    const Response rep =
        cached.Handle({"tpch " + std::to_string(query), "default"});
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.cache, Response::Cache::kHit);
  }
  EXPECT_EQ(cached.model_evaluations(), evals);
}

// ---------------------------------------------------------------------------
// Compiled statements against a row-at-a-time oracle, and their plan shape

/// Evaluates `sql` one row at a time over the base tables: resolve the
/// columns, nested-loop the join, filter, group and aggregate, and render
/// the rows as CanonicalRows does. Supports what the corpus below uses:
/// numeric WHERE literals and integral join keys.
std::string OracleRows(const Catalog& catalog, const std::string& sql) {
  SelectStatement stmt;
  UOT_CHECK(ParseSelect(sql, &stmt).ok());
  const Table* tables[2] = {catalog.Find(stmt.table),
                            stmt.has_join ? catalog.Find(stmt.join.table)
                                          : nullptr};
  const std::string names[2] = {stmt.table, stmt.join.table};
  struct Ref {
    int side;
    int col;
  };
  const auto resolve = [&](const std::string& name) {
    const size_t dot = name.find('.');
    const std::string column =
        dot == std::string::npos ? name : name.substr(dot + 1);
    for (int s = 0; s < 2; ++s) {
      if (tables[s] == nullptr) continue;
      if (dot != std::string::npos && name.substr(0, dot) != names[s]) {
        continue;
      }
      const int c = tables[s]->schema().ColumnIndex(column);
      if (c >= 0) return Ref{s, c};
    }
    UOT_CHECK(false);  // the corpus names only existing columns
    return Ref{};
  };
  using Row = std::vector<TypedValue>;
  const auto read = [](const Table* table) {
    std::vector<Row> rows;
    const Schema& schema = table->schema();
    for (const Block* block : table->blocks()) {
      for (uint32_t r = 0; r < block->num_rows(); ++r) {
        Row row;
        for (int c = 0; c < schema.num_columns(); ++c) {
          row.push_back(TypedValue::Load(schema.column(c).type,
                                         block->Column(c).at(r)));
        }
        rows.push_back(std::move(row));
      }
    }
    return rows;
  };
  const auto number = [](const SqlValue& v) {
    return v.kind == SqlValue::Kind::kInt ? static_cast<double>(v.int_value)
                                          : v.double_value;
  };
  using Joined = std::array<const Row*, 2>;
  const auto value = [](const Joined& row, const Ref& ref) {
    return row[static_cast<size_t>(ref.side)]->at(
        static_cast<size_t>(ref.col));
  };
  std::vector<Ref> where;
  for (const SqlCondition& cond : stmt.where) {
    where.push_back(resolve(cond.column));
  }
  const auto passes = [&](const Joined& row) {
    for (size_t i = 0; i < where.size(); ++i) {
      const double a = value(row, where[i]).ToDouble();
      const double b = number(stmt.where[i].value);
      bool ok = false;
      switch (stmt.where[i].op) {
        case CompareOp::kEq: ok = a == b; break;
        case CompareOp::kNe: ok = a != b; break;
        case CompareOp::kLt: ok = a < b; break;
        case CompareOp::kLe: ok = a <= b; break;
        case CompareOp::kGt: ok = a > b; break;
        case CompareOp::kGe: ok = a >= b; break;
      }
      if (!ok) return false;
    }
    return true;
  };
  const auto render = [](const TypedValue& v) {
    if (v.type_id() != TypeId::kDouble) return v.ToString();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.7g", v.AsDouble());
    return std::string(buf);
  };

  // The joined (or single-table) rows that pass WHERE.
  const std::vector<Row> left = read(tables[0]);
  std::vector<Row> right;
  std::multimap<int64_t, const Row*> right_by_key;
  Ref keys[2] = {};
  if (stmt.has_join) {
    right = read(tables[1]);
    keys[0] = resolve(stmt.join.left_column);
    keys[1] = resolve(stmt.join.right_column);
    if (keys[0].side == 1) std::swap(keys[0], keys[1]);
    for (const Row& r : right) {
      right_by_key.emplace(r[static_cast<size_t>(keys[1].col)].ToInt64(), &r);
    }
  }
  std::vector<Joined> joined;
  for (const Row& l : left) {
    if (!stmt.has_join) {
      if (passes({&l, nullptr})) joined.push_back({&l, nullptr});
      continue;
    }
    const auto [begin, end] = right_by_key.equal_range(
        l[static_cast<size_t>(keys[0].col)].ToInt64());
    for (auto it = begin; it != end; ++it) {
      if (passes({&l, it->second})) joined.push_back({&l, it->second});
    }
  }
  std::vector<Ref> items;
  for (const SqlSelectItem& item : stmt.items) {
    items.push_back(item.count_star ? Ref{0, -1} : resolve(item.column));
  }
  std::vector<Ref> group_by;
  for (const std::string& g : stmt.group_by) group_by.push_back(resolve(g));

  std::vector<std::string> lines;
  const bool aggregated =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SqlSelectItem& i) { return i.is_aggregate; });
  if (!aggregated) {
    for (const Joined& row : joined) {
      std::string line;
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) line += ",";
        line += render(value(row, items[i]));
      }
      lines.push_back(std::move(line));
    }
  } else {
    struct Acc {
      int64_t count = 0;
      long double sum = 0;
      double min = std::numeric_limits<double>::infinity();
      double max = -std::numeric_limits<double>::infinity();
    };
    struct Group {
      Joined first{};  // a row of the group, for its bare (key) items
      std::vector<Acc> accs;
    };
    std::map<std::string, Group> groups;
    for (const Joined& row : joined) {
      std::string id;
      for (const Ref& g : group_by) id += value(row, g).ToString() + "|";
      Group& group = groups[id];
      if (group.accs.empty()) {
        group.first = row;
        group.accs.resize(stmt.items.size());
      }
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const SqlSelectItem& item = stmt.items[i];
        if (!item.is_aggregate) continue;
        Acc& acc = group.accs[i];
        ++acc.count;
        if (item.count_star) continue;
        const double v = value(row, items[i]).ToDouble();
        acc.sum += v;
        acc.min = std::min(acc.min, v);
        acc.max = std::max(acc.max, v);
      }
    }
    // A scalar aggregate over no rows still returns one row of zeros.
    if (groups.empty() && stmt.group_by.empty()) {
      groups[""].accs.resize(stmt.items.size());
    }
    for (const auto& [id, group] : groups) {
      std::string line;
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const SqlSelectItem& item = stmt.items[i];
        if (i > 0) line += ",";
        if (!item.is_aggregate) {
          line += render(value(group.first, items[i]));
          continue;
        }
        const Acc& acc = group.accs[i];
        if (item.fn == AggFn::kCount) {
          line += std::to_string(acc.count);
          continue;
        }
        double v = 0.0;
        if (acc.count > 0) {
          switch (item.fn) {
            case AggFn::kSum: v = static_cast<double>(acc.sum); break;
            case AggFn::kAvg:
              v = static_cast<double>(acc.sum / acc.count);
              break;
            case AggFn::kMin: v = acc.min; break;
            case AggFn::kMax: v = acc.max; break;
            case AggFn::kCount: break;
          }
        }
        line += render(TypedValue::Double(v));
      }
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// Statements whose plans carry a chosen subset of columns through each
/// stage: every shape the compiler emits, and each way a column can be
/// needed above a join.
const std::vector<std::string>& OracleCorpus() {
  static const std::vector<std::string> corpus = {
      // No join, aggregated straight off the base table.
      "select count(*), sum(l_quantity) from lineitem where l_quantity < 24",
      "select max(l_extendedprice), min(l_extendedprice), avg(l_discount) "
      "from lineitem where l_quantity = 7",
      "select sum(l_extendedprice), l_returnflag from lineitem "
      "group by l_returnflag",
      // Dense-eligible integral group keys.
      "select l_suppkey, count(*), sum(l_extendedprice) from lineitem "
      "where l_quantity < 25 group by l_suppkey",
      "select l_linenumber, count(*), max(l_tax) from lineitem "
      "group by l_linenumber",
      // No join, bare columns; l_quantity is both filtered and selected.
      "select l_quantity, l_partkey, l_quantity from lineitem "
      "where l_quantity < 3 and l_discount > 0.08",
      // Group keys and aggregates drawn from both join sides.
      "select o_orderstatus, l_returnflag, count(*), sum(l_quantity), "
      "avg(o_totalprice), max(l_discount) from lineitem join orders "
      "on l_orderkey = o_orderkey where l_quantity < 20 "
      "group by o_orderstatus, l_returnflag",
      "select sum(o_totalprice), o_orderstatus from orders join customer "
      "on o_custkey = c_custkey where c_acctbal > 5000 "
      "group by o_orderstatus",
      // COUNT(*) over a join and no other column, filtered and not.
      "select count(*) from lineitem join orders on l_orderkey = o_orderkey "
      "where l_quantity > 30",
      "select count(*) from orders join lineitem on o_orderkey = l_orderkey",
      // An INT64 key against an INT32 key.
      "select count(*) from orders join lineitem on o_orderkey = l_linenumber",
      // Selected join keys, and columns used in both WHERE and SELECT.
      "select l_orderkey, o_orderkey, l_quantity from lineitem join orders "
      "on l_orderkey = o_orderkey where o_totalprice < 20000 "
      "and l_quantity < 30",
      // A select list that interleaves the two sides.
      "select l_quantity, o_totalprice, l_discount, o_orderdate, l_quantity "
      "from lineitem join orders on l_orderkey = o_orderkey "
      "where l_quantity < 3 and o_totalprice < 100000",
      // The build side filtered, the probe side read whole.
      "select c_name, o_totalprice from orders join customer "
      "on o_custkey = c_custkey where c_acctbal > 9000",
  };
  return corpus;
}

TEST_F(TpchServerTest, CompiledStatementsMatchRowOracle) {
  Catalog catalog(storage_);
  catalog.RegisterTpch(db_);
  const PlanCompiler compiler(&catalog, PlanBuilderConfig{});
  std::map<std::string, std::string> expected_rows;
  for (const std::string& sql : OracleCorpus()) {
    SCOPED_TRACE(sql);
    const std::string& expected = expected_rows[sql] =
        OracleRows(catalog, sql);
    SelectStatement stmt;
    ASSERT_TRUE(ParseSelect(sql, &stmt).ok());
    for (const PipelineMode mode :
         {PipelineMode::kVectorized, PipelineMode::kFused}) {
      for (const int radix_bits : {0, 2}) {
        SCOPED_TRACE("fused=" +
                     std::to_string(mode == PipelineMode::kFused) +
                     " radix=" + std::to_string(radix_bits));
        std::unique_ptr<QueryPlan> plan;
        ASSERT_TRUE(compiler.Compile(stmt, {}, radix_bits, &plan).ok());
        ExecConfig exec;
        exec.num_workers = 2;
        exec.pipeline_mode = mode;
        QueryExecutor::Execute(plan.get(), exec);
        EXPECT_TRUE(
            CanonicalRowsNear(CanonicalRows(*plan->result_table()), expected));
      }
    }
  }

  // Through the front end: the miss and the hit return the same bytes.
  FrontEndConfig config;
  config.engine.num_workers = 2;
  config.chooser.threads = 2;
  FrontEnd frontend(config, &catalog);
  for (const std::string& sql : OracleCorpus()) {
    const Response miss = frontend.Handle({sql, "default"});
    ASSERT_TRUE(miss.ok) << sql << ": " << miss.error;
    const Response hit = frontend.Handle({sql, "default"});
    ASSERT_TRUE(hit.ok) << sql << ": " << hit.error;
    EXPECT_EQ(hit.cache, Response::Cache::kHit) << sql;
    EXPECT_EQ(hit.rows_csv, miss.rows_csv) << sql;
    EXPECT_TRUE(CanonicalRowsNear(miss.rows_csv, expected_rows[sql]))
        << sql;
  }
}

/// The operator of `plan` of type T (the first one).
template <typename T>
T* FindOperator(QueryPlan* plan, int* index = nullptr) {
  for (int i = 0; i < plan->num_operators(); ++i) {
    if (auto* op = dynamic_cast<T*>(plan->op(i))) {
      if (index != nullptr) *index = i;
      return op;
    }
  }
  return nullptr;
}

TEST_F(TpchServerTest, FilteredAggregateReadsTheBaseTable) {
  Catalog catalog(storage_);
  catalog.RegisterTpch(db_);
  const PlanCompiler compiler(&catalog, PlanBuilderConfig{});
  for (const char* sql :
       {"select count(*) from lineitem where l_quantity < 24",
        "select sum(l_extendedprice), count(*) from lineitem "
        "where l_quantity < 24 and l_discount > 0.05"}) {
    SCOPED_TRACE(sql);
    SelectStatement stmt;
    ASSERT_TRUE(ParseSelect(sql, &stmt).ok());
    std::unique_ptr<QueryPlan> plan;
    ASSERT_TRUE(compiler.Compile(stmt, {}, 0, &plan).ok());
    // One operator, so its output is the only temp table; no streaming
    // edge, so it reads lineitem itself.
    ASSERT_EQ(plan->num_operators(), 1);
    ASSERT_NE(dynamic_cast<AggregateOperator*>(plan->op(0)), nullptr);
    EXPECT_TRUE(plan->streaming_edges().empty());
    EXPECT_EQ(plan->destination_of(0)->output(), plan->result_table());
  }
}

TEST_F(TpchServerTest, JoinCarriesOnlyTheKeyForCountStar) {
  Catalog catalog(storage_);
  catalog.RegisterTpch(db_);
  const PlanCompiler compiler(&catalog, PlanBuilderConfig{});
  SelectStatement stmt;
  ASSERT_TRUE(ParseSelect("select count(*) from lineitem join orders "
                          "on l_orderkey = o_orderkey where l_quantity > 30",
                          &stmt)
                  .ok());
  std::unique_ptr<QueryPlan> plan;
  ASSERT_TRUE(compiler.Compile(stmt, {}, 0, &plan).ok());

  int build_index = -1;
  int probe_index = -1;
  BuildHashOperator* build =
      FindOperator<BuildHashOperator>(plan.get(), &build_index);
  ProbeHashOperator* probe =
      FindOperator<ProbeHashOperator>(plan.get(), &probe_index);
  ASSERT_NE(build, nullptr);
  ASSERT_NE(probe, nullptr);
  const Schema& payload = build->hash_table()->payload_schema();
  ASSERT_EQ(payload.num_columns(), 1);
  EXPECT_EQ(payload.column(0).name, "o_orderkey");

  // orders has no WHERE: the build reads it directly. lineitem's scan
  // projects its key alone into the probe.
  const SelectOperator* scan = nullptr;
  for (const QueryPlan::StreamingEdge& edge : plan->streaming_edges()) {
    EXPECT_NE(edge.consumer, build_index);
    if (edge.consumer == probe_index) {
      scan = dynamic_cast<const SelectOperator*>(plan->op(edge.producer));
    }
  }
  ASSERT_NE(scan, nullptr);
  const Schema& probe_in = scan->destination()->schema();
  ASSERT_EQ(probe_in.num_columns(), 1);
  EXPECT_EQ(probe_in.column(0).name, "l_orderkey");

  // The join keys are all it carries, so the radix estimate sizes 8-byte
  // rows, not orders' and lineitem's full rows.
  EdgeEstimate build_est, probe_est;
  ASSERT_TRUE(compiler.JoinEstimates(stmt, &build_est, &probe_est).ok());
  EXPECT_EQ(build_est.row_bytes, 8.0);
  EXPECT_EQ(probe_est.row_bytes, 8.0);
}

TEST_F(TpchServerTest, IntegralGroupKeyOverBaseTableTakesDenseLayout) {
  Catalog catalog(storage_);
  catalog.RegisterTpch(db_);
  const PlanCompiler compiler(&catalog, PlanBuilderConfig{});
  SelectStatement stmt;
  ASSERT_TRUE(ParseSelect("select l_linenumber, count(*) from lineitem "
                          "where l_quantity < 25 group by l_linenumber",
                          &stmt)
                  .ok());
  std::unique_ptr<QueryPlan> plan;
  ASSERT_TRUE(compiler.Compile(stmt, {}, 0, &plan).ok());
  ASSERT_EQ(plan->num_operators(), 1);
  QueryExecutor::Execute(plan.get(), ExecConfig{});
  const auto* agg = dynamic_cast<const AggregateOperator*>(plan->op(0));
  ASSERT_NE(agg, nullptr);
  EXPECT_TRUE(agg->dense());
  EXPECT_EQ(plan->result_table()->NumRows(), 7u);
}

/// Statements that once aborted the server at plan construction or
/// execution (aggregates over CHAR, join keys the hash kernels cannot key)
/// or returned nonsense (join keys of different type families: CHAR
/// against an integer, DATE against an integer).
const std::vector<std::string>& TypeErrorStatements() {
  static const std::vector<std::string> statements = {
      "select sum(l_shipmode) from lineitem",
      "select min(l_shipmode) from lineitem",
      "select count(*) from orders join lineitem on o_orderkey = l_shipmode",
      "select count(*) from orders join lineitem on o_orderkey = l_quantity",
      "select count(*) from orders join lineitem on o_orderstatus = "
      "l_linenumber",
      "select count(*) from orders join lineitem on o_orderdate = l_orderkey",
  };
  return statements;
}

TEST_F(TpchServerTest, TypeErrorsAreErrorsNotAborts) {
  Catalog catalog(storage_);
  catalog.RegisterTpch(db_);
  FrontEndConfig config;
  config.engine.num_workers = 2;
  config.chooser.threads = 2;
  FrontEnd frontend(config, &catalog);
  for (const std::string& sql : TypeErrorStatements()) {
    const Response resp = frontend.Handle({sql, "default"});
    EXPECT_FALSE(resp.ok) << sql;
    EXPECT_EQ(FormatResponse(resp).rfind("ERR ", 0), 0u) << sql;
  }
  // Other type errors the kernels would abort on: non-keyable and too many
  // group keys.
  for (const char* sql :
       {"select l_shipmode, count(*) from lineitem group by l_shipmode",
        "select count(*) from lineitem group by l_quantity",
        "select count(*) from lineitem group by l_orderkey, l_partkey, "
        "l_suppkey, l_linenumber"}) {
    EXPECT_FALSE(frontend.Handle({sql, "default"}).ok) << sql;
  }
  // An INT32 key against an INT64 key is fine.
  const Response mixed = frontend.Handle(
      {"select count(*) from orders join lineitem on o_orderkey = "
       "l_linenumber",
       "default"});
  ASSERT_TRUE(mixed.ok) << mixed.error;
  EXPECT_EQ(mixed.rows_csv,
            OracleRows(catalog, "select count(*) from orders join lineitem "
                                "on o_orderkey = l_linenumber"));
  EXPECT_TRUE(frontend.Handle({"select count(*) from lineitem", "default"}).ok);
}

// ---------------------------------------------------------------------------
// Text protocol over TCP

class TcpClient {
 public:
  explicit TcpClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }

  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& text) {
    ASSERT_EQ(::send(fd_, text.data(), text.size(), 0),
              static_cast<ssize_t>(text.size()));
  }

  /// Reads one reply: a single ERR line, or an OK header + rows + END.
  std::string ReadReply() {
    while (true) {
      const std::string line = ReadLine();
      if (line.empty() && eof_) return reply_;
      reply_ += line + "\n";
      if (line.rfind("ERR ", 0) == 0 || line == "END") {
        std::string out;
        out.swap(reply_);
        return out;
      }
    }
  }

 private:
  std::string ReadLine() {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        eof_ = true;
        return "";
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return line;
  }

  int fd_ = -1;
  bool connected_ = false;
  bool eof_ = false;
  std::string buffer_;
  std::string reply_;
};

TEST_F(FrontEndTest, TcpServerRoundTrip) {
  FrontEndConfig config = SmallConfig();
  config.engine.admission_classes.push_back(AdmissionClass{"gold", 2, 1.0});
  FrontEnd frontend(config, &catalog_);
  TextServer tcp(&frontend);
  ASSERT_TRUE(tcp.Start(0).ok());  // ephemeral port
  ASSERT_GT(tcp.port(), 0);

  {
    TcpClient client(tcp.port());
    ASSERT_TRUE(client.connected());
    client.Send("select count(*) from fact\n");
    std::string reply = client.ReadReply();
    EXPECT_EQ(reply.rfind("OK rows=1 cache=miss", 0), 0u) << reply;
    EXPECT_NE(reply.find("\n200\n"), std::string::npos) << reply;

    // The tenant switch is per-connection state held by the server.
    client.Send("set tenant gold\nselect count(*) from fact\n");
    reply = client.ReadReply();
    EXPECT_EQ(reply.rfind("OK rows=0", 0), 0u) << reply;
    reply = client.ReadReply();
    EXPECT_EQ(reply.rfind("OK rows=1 cache=hit", 0), 0u) << reply;

    client.Send("select nope\n");
    reply = client.ReadReply();
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    client.Send("quit\n");
  }

  // A second connection is served after the first closed.
  {
    TcpClient client(tcp.port());
    ASSERT_TRUE(client.connected());
    client.Send("select count(*) from fact\n");
    const std::string reply = client.ReadReply();
    EXPECT_EQ(reply.rfind("OK rows=1 cache=hit", 0), 0u) << reply;
  }

  tcp.Stop();
  EXPECT_EQ(tcp.connections_accepted(), 2u);
  tcp.Stop();  // idempotent
}

TEST_F(FrontEndTest, ClosedConnectionsAreReaped) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  TextServer tcp(&frontend);
  ASSERT_TRUE(tcp.Start(0).ok());

  // Each connection's fd and serving thread must be released when the
  // client goes away, not accumulated until Stop() — a long-running
  // server would otherwise leak one CLOSE_WAIT fd per connection.
  for (int i = 0; i < 8; ++i) {
    TcpClient client(tcp.port());
    ASSERT_TRUE(client.connected());
    client.Send("select count(*) from fact\n");
    const std::string reply = client.ReadReply();
    EXPECT_EQ(reply.rfind("OK rows=1", 0), 0u) << reply;
    client.Send("quit\n");
  }
  // The server notices EOF/QUIT asynchronously; poll briefly.
  for (int i = 0; i < 200 && tcp.active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(tcp.active_connections(), 0u);
  EXPECT_EQ(tcp.connections_accepted(), 8u);
  tcp.Stop();
}

TEST_F(FrontEndTest, ConcurrentStopIsSafe) {
  FrontEnd frontend(SmallConfig(), &catalog_);
  TextServer tcp(&frontend);
  ASSERT_TRUE(tcp.Start(0).ok());
  TcpClient client(tcp.port());
  ASSERT_TRUE(client.connected());

  // Every caller must return only after the teardown is complete, and no
  // two callers may touch accept_thread_ at once (double join is UB).
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&tcp] { tcp.Stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_EQ(tcp.active_connections(), 0u);
}

TEST_F(TpchServerTest, TypeErrorsOverTcpLeaveTheServerServing) {
  Catalog catalog(storage_);
  catalog.RegisterTpch(db_);
  FrontEndConfig config;
  config.engine.num_workers = 2;
  config.chooser.threads = 2;
  FrontEnd frontend(config, &catalog);
  TextServer tcp(&frontend);
  ASSERT_TRUE(tcp.Start(0).ok());
  {
    TcpClient client(tcp.port());
    ASSERT_TRUE(client.connected());
    for (const std::string& sql : TypeErrorStatements()) {
      client.Send(sql + "\n");
      const std::string reply = client.ReadReply();
      EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << sql << ": " << reply;
    }
    client.Send("select count(*) from lineitem\n");
    const std::string reply = client.ReadReply();
    EXPECT_EQ(reply.rfind("OK rows=1", 0), 0u) << reply;
    client.Send("quit\n");
  }
  tcp.Stop();
}

TEST(FormatResponseTest, RendersOkAndError) {
  Response ok;
  ok.ok = true;
  ok.row_count = 2;
  ok.cache = Response::Cache::kHit;
  ok.exec_ms = 1.25;
  ok.rows_csv = "a,1\nb,2\n";
  EXPECT_EQ(FormatResponse(ok),
            "OK rows=2 cache=hit ms=1.250\na,1\nb,2\nEND\n");

  Response err;
  err.ok = false;
  err.error = "boom";
  EXPECT_EQ(FormatResponse(err), "ERR boom\n");
}

TEST(ParseTenantSpecTest, RejectsMalformedAndDuplicateSpecs) {
  std::vector<AdmissionClass> classes;
  ASSERT_TRUE(ParseTenantSpec("gold:2:0.5", &classes).ok());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].name, "gold");
  EXPECT_EQ(classes[0].max_inflight, 2);
  EXPECT_EQ(classes[0].memory_share, 0.5);

  // Each of these was once accepted: "x" and "-3" as unlimited, a trailing
  // suffix ignored, and a share above 1 taken as 4x the engine budget.
  for (const char* spec :
       {"gold:x:0.5", "gold:-3:0.5", "gold:2:0.5junk", "gold:2:4.0"}) {
    std::vector<AdmissionClass> fresh;
    EXPECT_FALSE(ParseTenantSpec(spec, &fresh).ok()) << spec;
    EXPECT_TRUE(fresh.empty()) << spec;
  }
  // A repeated name once silently overwrote the earlier class.
  EXPECT_FALSE(ParseTenantSpec("gold:1:1.0", &classes).ok());
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].max_inflight, 2);
}

}  // namespace
}  // namespace server
}  // namespace uot

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

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/query_executor.h"
#include "plan/plan_builder.h"
#include "server/frontend.h"
#include "server/plan_cache.h"
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

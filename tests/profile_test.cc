#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/adaptive_uot_policy.h"
#include "exec/engine.h"
#include "exec/query_executor.h"
#include "model/uot_chooser.h"
#include "obs/json_lite.h"
#include "obs/metrics.h"
#include "obs/metrics_sampler.h"
#include "obs/query_profile.h"
#include "operators/aggregate_operator.h"
#include "operators/select_operator.h"
#include "plan/plan_builder.h"
#include "test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace uot {
namespace {

using testing::MakeKvTable;

/// select(TRUE) -> agg(sum(v) group by k) over a plan-owned pipeline: one
/// streaming edge with a deterministic payload, so oracle estimates can be
/// measured from a profile run and predictions compared exactly.
std::unique_ptr<QueryPlan> MakeSelectAggPlan(StorageManager* storage,
                                             const Table& input) {
  auto plan = std::make_unique<QueryPlan>(storage);
  auto proj = Projection::Identity(input.schema(), {0, 1});
  Schema sel_schema = proj->output_schema();
  Table* sel_out = plan->CreateTempTable("sel.out", sel_schema,
                                         Layout::kRowStore, 1024);
  InsertDestination* sel_dest = plan->CreateDestination(sel_out);
  auto select = std::make_unique<SelectOperator>(
      "select", std::make_unique<TruePredicate>(), std::move(proj),
      sel_dest);
  select->AttachBaseTable(&input);
  const int select_op = plan->AddOperator(std::move(select));
  plan->RegisterOutput(select_op, sel_dest);

  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum"});
  Schema agg_schema = AggregateOperator::OutputSchema(sel_schema, {0}, aggs);
  Table* agg_out = plan->CreateTempTable("agg.out", agg_schema,
                                         Layout::kRowStore, 1024);
  InsertDestination* agg_dest = plan->CreateDestination(agg_out);
  auto agg = std::make_unique<AggregateOperator>(
      "agg", sel_schema, std::vector<int>{0}, std::move(aggs), nullptr,
      agg_dest, &plan->storage()->tracker());
  const int agg_op = plan->AddOperator(std::move(agg));
  plan->RegisterOutput(agg_op, agg_dest);
  plan->AddStreamingEdge(select_op, agg_op);
  plan->SetResultTable(agg_out);
  return plan;
}

TEST(ProfileTest, FromRunJoinsMeasuredEdgesWithOperators) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 3000, 16, Layout::kRowStore, 1024);
  auto plan = MakeSelectAggPlan(&storage, *input);
  ExecConfig config;
  config.num_workers = 2;
  config.uot = UotPolicy::LowUot(1);
  ExecutionStats stats = QueryExecutor::Execute(plan.get(), config);

  const obs::QueryProfile profile =
      obs::QueryProfile::FromRun(plan.get(), stats, {"select-agg"});
  EXPECT_EQ(profile.query_name(), "select-agg");
  ASSERT_EQ(profile.operators().size(), 2u);
  EXPECT_EQ(profile.operators()[0].name, "select");
  EXPECT_GT(profile.operators()[0].num_work_orders, 0u);
  EXPECT_GT(profile.operators()[0].latency.count, 0u);
  EXPECT_GE(profile.operators()[0].latency.p99,
            profile.operators()[0].latency.p50);

  ASSERT_EQ(profile.edges().size(), 1u);
  const obs::QueryProfile::Edge& edge = profile.edges()[0];
  EXPECT_EQ(edge.producer, 0);
  EXPECT_EQ(edge.consumer, 1);
  EXPECT_EQ(edge.producer_name, "select");
  EXPECT_EQ(edge.consumer_name, "agg");
  EXPECT_EQ(edge.transfers, stats.edges[0].transfers);
  // Payload volume is rows x row width, independent of scheduling.
  const uint64_t row_width = input->schema().row_width();
  EXPECT_EQ(edge.bytes_delivered, 3000u * row_width);
  EXPECT_EQ(edge.blocks_delivered, edge.blocks_produced);
  EXPECT_GT(edge.max_buffered_bytes, 0u);
  EXPECT_FALSE(edge.has_prediction);  // nothing annotated

  const std::string text = profile.ToString();
  EXPECT_NE(text.find("op[0] select"), std::string::npos);
  EXPECT_NE(text.find("edge[0] op0 -> op1"), std::string::npos);
  EXPECT_NE(text.find("memory peaks:"), std::string::npos);
}

TEST(ProfileTest, OracleEstimatesGiveZeroByteResiduals) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 4000, 20, Layout::kRowStore, 1024);

  // Profile run: measure the edge's actual output cardinality.
  auto profiled = MakeSelectAggPlan(&storage, *input);
  ExecConfig profile_config;
  profile_config.num_workers = 2;
  profile_config.drop_consumed_blocks = false;
  QueryExecutor::Execute(profiled.get(), profile_config);
  const std::vector<EdgeEstimate> oracle =
      CostModelUotChooser::EstimatesFromExecutedPlan(*profiled);
  ASSERT_EQ(oracle.size(), 1u);
  ASSERT_EQ(oracle[0].rows, 4000u);

  // Fresh plan annotated with the chooser's predictions from the oracle
  // estimates, then executed with profiling on.
  CostModelUotChooser chooser;
  auto fresh = MakeSelectAggPlan(&storage, *input);
  const std::vector<UotChoice> choices = chooser.ChoosePlan(*fresh, oracle);
  ASSERT_EQ(choices.size(), 1u);
  CostModelUotChooser::AnnotatePlan(fresh.get(), choices);
  ASSERT_TRUE(fresh->edge_prediction(0).has_value());

  ExecConfig config;
  config.num_workers = 2;
  ExecutionStats stats = QueryExecutor::Execute(fresh.get(), config);

  const obs::QueryProfile profile =
      obs::QueryProfile::FromRun(fresh.get(), stats, {"oracle"});
  ASSERT_EQ(profile.edges().size(), 1u);
  const obs::QueryProfile::Edge& edge = profile.edges()[0];
  ASSERT_TRUE(edge.has_prediction);
  EXPECT_EQ(edge.est_rows, 4000u);
  // With oracle cardinalities the byte residual is exactly zero: both
  // sides are rows x row width.
  EXPECT_EQ(edge.residual_bytes, 0);
  // Transfers depend on how full the produced blocks are, which the model
  // idealizes; the residual must still be small relative to the total.
  EXPECT_LE(static_cast<double>(std::abs(edge.residual_transfers)),
            0.5 * static_cast<double>(
                      std::max<uint64_t>(1, edge.predicted_transfers)) +
                2.0);
  EXPECT_LT(edge.WorstRelativeError(), 1.0);

  const std::string report = profile.CalibrationReport();
  EXPECT_NE(report.find("rel_err"), std::string::npos);
}

TEST(ProfileTest, AdaptiveRunRecordsDecisionLogWithCauses) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 8000, 16, Layout::kRowStore, 2048);
  auto plan = MakeSelectAggPlan(&storage, *input);

  ExecConfig config;
  config.num_workers = 2;
  config.uot_policy = std::make_shared<AdaptiveUotPolicy>();
  config.memory_budget_bytes = 1;  // constant pressure: must narrow
  ExecutionStats stats = QueryExecutor::Execute(plan.get(), config);

  ASSERT_FALSE(stats.uot_decisions.empty());
  // The first record is the edge's initial resolution: from_blocks 0 with
  // either the seed cause or, under immediate pressure, the policy's own
  // narrow cause.
  EXPECT_EQ(stats.uot_decisions.front().from_blocks, 0u);
  bool saw_narrow = false;
  int64_t last_t = 0;
  for (const UotDecisionRecord& d : stats.uot_decisions) {
    EXPECT_GE(d.t_ns, last_t);
    last_t = d.t_ns;
    if (d.from_blocks != 0 &&
        (d.cause == UotAdaptCause::kDeferralDepth ||
         d.cause == UotAdaptCause::kHeadroomWatermark)) {
      saw_narrow = true;
      EXPECT_LT(d.to_blocks, d.from_blocks);
    }
  }
  EXPECT_EQ(saw_narrow, stats.uot_adaptations > 0);
  // Budget pressure at budget=1 defers work orders and logs the events.
  EXPECT_GT(stats.budget_deferrals, 0u);
  EXPECT_FALSE(stats.budget_events.empty());
}

TEST(ProfileTest, DecisionLogIsCollectedByDefault) {
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig tpch_config;
  tpch_config.scale_factor = 0.002;
  db.Generate(tpch_config);

  for (const PipelineMode mode :
       {PipelineMode::kVectorized, PipelineMode::kFused}) {
    SCOPED_TRACE(PipelineModeName(mode));
    auto plan = BuildTpchPlan(3, db, TpchPlanConfig{});
    ExecConfig config;
    config.pipeline_mode = mode;
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), config);

    // A fixed policy never adapts, so the log is exactly one seed decision
    // per edge that consults the policy: every edge but fused interiors.
    std::set<int> unfused;
    for (size_t e = 0; e < stats.edges.size(); ++e) {
      if (!stats.edges[e].fused) unfused.insert(static_cast<int>(e));
    }
    ASSERT_FALSE(unfused.empty());
    ASSERT_EQ(stats.uot_decisions.size(), unfused.size());
    std::set<int> decided;
    for (const UotDecisionRecord& d : stats.uot_decisions) {
      EXPECT_EQ(d.cause, UotAdaptCause::kSeed);
      EXPECT_EQ(d.from_blocks, 0u);
      EXPECT_EQ(d.to_blocks, stats.edges[static_cast<size_t>(d.edge)]
                                 .final_uot_blocks);
      decided.insert(d.edge);
    }
    EXPECT_EQ(decided, unfused);

    const obs::QueryProfile profile =
        obs::QueryProfile::FromRun(plan.get(), stats, {"q3"});
    EXPECT_NE(profile.ToString().find(
                  std::to_string(unfused.size()) + " decisions"),
              std::string::npos);
    const std::string json = profile.ToJson();
    obs::QueryProfileSummary summary;
    const Status status = obs::ParseQueryProfileJson(json, &summary);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(summary.num_uot_decisions, unfused.size());

    // Documents written while the logs were optional carry a "profiled"
    // flag; they still validate.
    std::string flagged = json;
    const size_t id = flagged.find("\"id\": ");
    ASSERT_NE(id, std::string::npos);
    flagged.insert(id, "\"profiled\": true, ");
    ASSERT_TRUE(obs::ParseQueryProfileJson(flagged, &summary).ok());
    EXPECT_EQ(summary.num_uot_decisions, unfused.size());
  }
}

TEST(ProfileTest, JsonRoundTripsThroughValidator) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 4000, 20, Layout::kRowStore, 1024);

  auto profiled = MakeSelectAggPlan(&storage, *input);
  ExecConfig profile_config;
  profile_config.num_workers = 2;
  profile_config.drop_consumed_blocks = false;
  QueryExecutor::Execute(profiled.get(), profile_config);
  const std::vector<EdgeEstimate> oracle =
      CostModelUotChooser::EstimatesFromExecutedPlan(*profiled);

  CostModelUotChooser chooser;
  auto fresh = MakeSelectAggPlan(&storage, *input);
  CostModelUotChooser::AnnotatePlan(fresh.get(),
                                    chooser.ChoosePlan(*fresh, oracle));
  ExecConfig config;
  config.num_workers = 2;
  config.uot_policy = std::make_shared<AdaptiveUotPolicy>();
  config.memory_budget_bytes = 1;
  ExecutionStats stats = QueryExecutor::Execute(fresh.get(), config);

  const obs::QueryProfile profile =
      obs::QueryProfile::FromRun(fresh.get(), stats, {"roundtrip"});
  const std::string json = profile.ToJson();

  obs::QueryProfileSummary summary;
  const Status status = obs::ParseQueryProfileJson(json, &summary);
  ASSERT_TRUE(status.ok()) << status.ToString() << "\n" << json;
  EXPECT_EQ(summary.query_name, "roundtrip");
  EXPECT_EQ(summary.query_id, stats.query_id);
  EXPECT_EQ(summary.num_operators, 2u);
  EXPECT_EQ(summary.num_edges, 1u);
  EXPECT_EQ(summary.num_predicted_edges, 1u);
  EXPECT_EQ(summary.num_uot_decisions, stats.uot_decisions.size());
  EXPECT_EQ(summary.num_budget_events, stats.budget_events.size());

  // The validator rejects structurally broken documents.
  obs::QueryProfileSummary ignored;
  EXPECT_FALSE(obs::ParseQueryProfileJson("{\"query\": {}}", &ignored).ok());
  EXPECT_FALSE(obs::ParseQueryProfileJson(json + "x", &ignored).ok());
  std::string no_edges = json;
  const size_t pos = no_edges.find("\"edges\"");
  ASSERT_NE(pos, std::string::npos);
  no_edges.replace(pos, 7, "\"wrong\"");
  EXPECT_FALSE(obs::ParseQueryProfileJson(no_edges, &ignored).ok());
}

/// select -> aggregate via PlanBuilder, optionally annotated as one fused
/// pipeline, so the profile of the same plan shape can be compared across
/// the two execution modes.
std::unique_ptr<QueryPlan> MakeFusablePlan(StorageManager* storage,
                                           const Table& input, bool fuse) {
  PlanBuilder builder(storage, PlanBuilderConfig{});
  PlanBuilder::Src sel = builder.Select(
      "sel", PlanBuilder::Base(input),
      Cmp(CompareOp::kLe, Col(1, Type::Double()), LitDouble(2500.0)),
      Projection::Identity(input.schema(), {0, 1}));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kSum, Col(1, Type::Double()), "sum_v"});
  PlanBuilder::Src agg = builder.Aggregate("agg", sel, {0}, std::move(aggs));
  if (fuse) builder.AnnotateFusedPipeline({sel, agg});
  return builder.Finish(agg);
}

TEST(ProfileTest, FinishTimeIsAttributedAndOptionalInJson) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 4000, 20, Layout::kRowStore, 1024);
  auto plan = MakeSelectAggPlan(&storage, *input);
  ExecConfig config;
  config.num_workers = 2;
  ExecutionStats stats = QueryExecutor::Execute(plan.get(), config);
  // The coordinator timed the aggregate's Finish(), which materialized
  // its 20 groups.
  ASSERT_EQ(stats.operators.size(), 2u);
  EXPECT_GT(stats.operators[1].finish_ns, 0);

  const obs::QueryProfile profile =
      obs::QueryProfile::FromRun(plan.get(), stats, {"finish"});
  EXPECT_EQ(profile.operators()[1].finish_ns, stats.operators[1].finish_ns);
  EXPECT_NE(profile.ToString().find(", finish "), std::string::npos);
  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"finish_ns\": "), std::string::npos);
  obs::QueryProfileSummary summary;
  ASSERT_TRUE(obs::ParseQueryProfileJson(json, &summary).ok());

  // Without Finish() timing the document is the one written before the
  // key existed, and it still validates.
  for (OperatorStats& os : stats.operators) os.finish_ns = 0;
  const std::string untimed =
      obs::QueryProfile::FromRun(plan.get(), stats, {"finish"}).ToJson();
  EXPECT_EQ(untimed.find("finish_ns"), std::string::npos);
  ASSERT_TRUE(obs::ParseQueryProfileJson(untimed, &summary).ok());

  // A present key must be a number.
  std::string broken = json;
  const size_t key = broken.find("\"finish_ns\": ") + 13;
  broken.replace(key, broken.find(',', key) - key, "\"x\"");
  EXPECT_FALSE(obs::ParseQueryProfileJson(broken, &summary).ok());
}

TEST(ProfileTest, CoordinatorSplitIsShownAndOptionalInJson) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 4000, 20, Layout::kRowStore, 1024);
  auto plan = MakeSelectAggPlan(&storage, *input);
  ExecConfig config;
  config.num_workers = 2;
  ExecutionStats stats = QueryExecutor::Execute(plan.get(), config);
  EXPECT_GT(stats.coordinator_events, 0u);
  EXPECT_LE(stats.completion_events, stats.coordinator_events);
  EXPECT_GT(stats.coordinator_busy_ns, 0);

  const obs::QueryProfile profile =
      obs::QueryProfile::FromRun(plan.get(), stats, {"split"});
  EXPECT_EQ(profile.queue_wait().count, stats.records.size());
  EXPECT_NE(profile.ToString().find("coordinator busy"), std::string::npos);
  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"coordinator_busy_ns\": "), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\": "), std::string::npos);
  obs::QueryProfileSummary summary;
  ASSERT_TRUE(obs::ParseQueryProfileJson(json, &summary).ok());
  EXPECT_EQ(summary.coordinator_events, stats.coordinator_events);
  EXPECT_EQ(summary.completion_events, stats.completion_events);

  // Stats without the split render the document written before the keys
  // existed, and it still validates.
  ExecutionStats old_stats = stats;
  old_stats.coordinator_busy_ns = 0;
  old_stats.coordinator_events = 0;
  old_stats.completion_events = 0;
  for (WorkOrderRecord& r : old_stats.records) r.dispatch_ns = 0;
  const std::string old_json =
      obs::QueryProfile::FromRun(plan.get(), old_stats, {"split"}).ToJson();
  EXPECT_EQ(old_json.find("coordinator"), std::string::npos);
  EXPECT_EQ(old_json.find("completion_events"), std::string::npos);
  EXPECT_EQ(old_json.find("queue_wait"), std::string::npos);
  ASSERT_TRUE(obs::ParseQueryProfileJson(old_json, &summary).ok());
  EXPECT_EQ(summary.coordinator_events, 0u);

  // Present keys must be complete, numeric and consistent.
  std::string partial = json;
  const size_t busy = partial.find("\"coordinator_busy_ns\": ");
  partial.erase(busy, partial.find(", ", busy) + 2 - busy);
  EXPECT_FALSE(obs::ParseQueryProfileJson(partial, &summary).ok());
  std::string broken = json;
  const size_t key = broken.find("\"completion_events\": ") + 21;
  broken.replace(key, broken.find(',', key) - key, "\"x\"");
  EXPECT_FALSE(obs::ParseQueryProfileJson(broken, &summary).ok());
  std::string inconsistent = json;
  inconsistent.replace(key, inconsistent.find(',', key) - key,
                       std::to_string(stats.coordinator_events + 1));
  EXPECT_FALSE(obs::ParseQueryProfileJson(inconsistent, &summary).ok());
}

TEST(ProfileTest, FusedRunRendersChainsAndVectorizedDocumentsAreUnchanged) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 4000, 20, Layout::kRowStore, 1024);

  // Vectorized baseline: the document must not mention fusion anywhere —
  // pre-fusion consumers see byte-identical output for unchanged runs.
  auto vec_plan = MakeFusablePlan(&storage, *input, /*fuse=*/false);
  ExecConfig vec_config;
  vec_config.num_workers = 2;
  ExecutionStats vec_stats = QueryExecutor::Execute(vec_plan.get(), vec_config);
  const obs::QueryProfile vec_profile =
      obs::QueryProfile::FromRun(vec_plan.get(), vec_stats, {"vec"});
  const std::string vec_json = vec_profile.ToJson();
  EXPECT_EQ(vec_json.find("fused"), std::string::npos);
  obs::QueryProfileSummary vec_summary;
  ASSERT_TRUE(obs::ParseQueryProfileJson(vec_json, &vec_summary).ok());
  EXPECT_EQ(vec_summary.num_fused_chains, 0u);
  EXPECT_EQ(vec_summary.num_fused_edges, 0u);

  // Fused run of the same plan shape.
  auto fused_plan = MakeFusablePlan(&storage, *input, /*fuse=*/true);
  ExecConfig fused_config = vec_config;
  fused_config.pipeline_mode = PipelineMode::kFused;
  ExecutionStats fused_stats =
      QueryExecutor::Execute(fused_plan.get(), fused_config);
  ASSERT_EQ(fused_stats.fused_chains.size(), 1u);

  const obs::QueryProfile profile =
      obs::QueryProfile::FromRun(fused_plan.get(), fused_stats, {"fused"});
  ASSERT_EQ(profile.edges().size(), 1u);
  EXPECT_TRUE(profile.edges()[0].fused);
  EXPECT_EQ(profile.edges()[0].transfers, 0u);
  EXPECT_EQ(profile.edges()[0].bytes_delivered, 0u);

  const std::string text = profile.ToString();
  EXPECT_NE(text.find("fused[0] op0 -> op1"), std::string::npos) << text;
  EXPECT_NE(text.find("fused pipeline op0->op1"), std::string::npos) << text;
  EXPECT_NE(text.find("(select): 4000 rows in, 2501 rows out"),
            std::string::npos)
      << text;

  const std::string json = profile.ToJson();
  obs::QueryProfileSummary summary;
  const Status status = obs::ParseQueryProfileJson(json, &summary);
  ASSERT_TRUE(status.ok()) << status.ToString() << "\n" << json;
  EXPECT_EQ(summary.num_fused_chains, 1u);
  EXPECT_EQ(summary.num_fused_edges, 1u);

  // The validator rejects structurally broken fused sections.
  obs::QueryProfileSummary ignored;
  std::string broken = json;
  const size_t pos = broken.find("\"stages\"");
  ASSERT_NE(pos, std::string::npos);
  broken.replace(pos, 8, "\"wrongs\"");
  EXPECT_FALSE(obs::ParseQueryProfileJson(broken, &ignored).ok());
}

TEST(ProfileTest, JsonParserDecodesUnicodeEscapes) {
  // Regression: \uXXXX used to be replaced by '?' for any non-ASCII code
  // unit, corrupting wire-protocol strings and profile round-trips. BMP
  // escapes must transcode to UTF-8 and surrogate pairs must combine.
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonValue::Parse(
                  "{\"s\": \"caf\\u00e9 \\u20AC \\uD83D\\uDE00 \\u0041\"}",
                  &root)
                  .ok());
  const obs::JsonValue* s = root.Find("s");
  ASSERT_NE(s, nullptr);
  // U+00E9 é, U+20AC €, U+1F600 (surrogate pair), ASCII A.
  EXPECT_EQ(s->AsString(),
            "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80 A");

  // A decoded multi-byte string survives a write-and-reparse round trip:
  // the writer passes UTF-8 bytes through unescaped.
  obs::JsonValue reparsed;
  ASSERT_TRUE(obs::JsonValue::Parse("\"\\u4f60\\u597d\"", &reparsed).ok());
  EXPECT_EQ(reparsed.AsString(), "\xE4\xBD\xA0\xE5\xA5\xBD");  // 你好

  // Strictness: lone or malformed surrogates are parse errors, not '?'.
  EXPECT_FALSE(obs::JsonValue::Parse("\"\\uD83D\"", &root).ok());
  EXPECT_FALSE(obs::JsonValue::Parse("\"\\uD83D\\u0041\"", &root).ok());
  EXPECT_FALSE(obs::JsonValue::Parse("\"\\uDE00\"", &root).ok());
  EXPECT_FALSE(obs::JsonValue::Parse("\"\\u12G4\"", &root).ok());
  EXPECT_FALSE(obs::JsonValue::Parse("\"\\u12\"", &root).ok());
}

TEST(ProfileTest, SamplerRingBufferWrapsAround) {
  obs::MetricsRegistry registry;
  obs::Counter* ticks = registry.GetCounter("test.ticks");
  registry.GetGauge("test.level")->Set(7);

  obs::MetricsSampler::Options options;
  options.interval_ms = 3600 * 1000;  // background thread effectively idle
  options.capacity = 4;
  int pre_sample_calls = 0;
  options.pre_sample = [&] { ++pre_sample_calls; };
  obs::MetricsSampler sampler(&registry, options);

  for (int i = 0; i < 10; ++i) {
    ticks->Increment();
    sampler.SampleOnce();
  }
  EXPECT_EQ(sampler.total_samples(), 10u);
  EXPECT_EQ(pre_sample_calls, 10);

  const std::vector<obs::MetricsSample> samples = sampler.Snapshot();
  ASSERT_EQ(samples.size(), 4u);  // capacity, oldest overwritten
  int64_t last_t = 0;
  int64_t last_ticks = 0;
  for (const obs::MetricsSample& s : samples) {
    EXPECT_GE(s.t_ns, last_t);
    last_t = s.t_ns;
    bool found = false;
    for (const auto& [name, value] : s.values) {
      if (name == "counter.test.ticks") {
        EXPECT_GT(value, last_ticks);
        last_ticks = value;
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  // The newest retained sample saw all ten increments.
  EXPECT_EQ(last_ticks, 10);

  // Exports parse and carry every retained sample.
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonValue::Parse(sampler.ToJson(), &root).ok());
  EXPECT_EQ(root.Find("samples")->AsArray().size(), 4u);
  EXPECT_EQ(static_cast<uint64_t>(root.NumberOr("total_samples", 0)), 10u);
  const obs::JsonValue* newest =
      root.Find("samples")->AsArray().back().Find("values");
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->NumberOr("counter.test.ticks", -1), 10);
  EXPECT_EQ(newest->NumberOr("gauge.test.level", -1), 7);
}

TEST(ProfileTest, NamesWithControlCharactersExportAsValidJson) {
  // JSON forbids raw control characters inside strings; the writers must
  // escape them so the documents parse and the names round-trip.
  const std::string name = "q\t3\n\x01";
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 500, 8, Layout::kRowStore, 1024);
  auto plan = MakeSelectAggPlan(&storage, *input);
  ExecutionStats stats = QueryExecutor::Execute(plan.get(), ExecConfig{});
  stats.operators[0].name = name;
  const std::string json =
      obs::QueryProfile::FromRun(plan.get(), stats, {name}).ToJson();
  obs::QueryProfileSummary summary;
  const Status status = obs::ParseQueryProfileJson(json, &summary);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(summary.query_name, name);
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonValue::Parse(json, &root).ok());
  EXPECT_EQ(root.Find("operators")->AsArray()[0].StringOr("name", ""), name);

  obs::MetricsRegistry registry;
  registry.GetCounter(name)->Add(2);
  obs::MetricsSampler sampler(&registry, obs::MetricsSampler::Options{});
  sampler.SampleOnce();
  const Status sampled = obs::JsonValue::Parse(sampler.ToJson(), &root);
  ASSERT_TRUE(sampled.ok()) << sampled.ToString();
  EXPECT_EQ(root.Find("samples")->AsArray()[0].Find("values")->NumberOr(
                "counter." + name, -1),
            2);
}

TEST(ProfileTest, EngineTelemetryRecordsLatencyAndGauges) {
  StorageManager storage;
  auto input = MakeKvTable(&storage, "in", 2000, 8, Layout::kRowStore, 1024);

  EngineConfig engine_config;
  engine_config.num_workers = 2;
  engine_config.sampler_interval_ms = 1;
  engine_config.sampler_capacity = 128;
  Engine engine(engine_config);
  ASSERT_NE(engine.metrics(), nullptr);
  ASSERT_NE(engine.sampler(), nullptr);
  EXPECT_TRUE(engine.sampler()->running());

  ExecConfig config;
  config.uot = UotPolicy::LowUot(1);
  constexpr int kQueries = 3;
  for (int i = 0; i < kQueries; ++i) {
    auto plan = MakeSelectAggPlan(&storage, *input);
    engine.Execute(plan.get(), config);
  }
  engine.Shutdown();
  EXPECT_FALSE(engine.sampler()->running());

  const obs::Histogram* latency =
      engine.metrics()->FindHistogram("engine.query_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->TotalCount(), static_cast<uint64_t>(kQueries));
  EXPECT_GT(latency->TakeSnapshot().p50, 0);
  const obs::Histogram* wait =
      engine.metrics()->FindHistogram("engine.admission_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->TotalCount(), static_cast<uint64_t>(kQueries));
  const obs::Counter* executed =
      engine.metrics()->FindCounter("engine.queries_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(executed->Value(), static_cast<uint64_t>(kQueries));

  // Shutdown's final sample means the series is never empty, ends in the
  // idle state, and parses as JSON.
  ASSERT_GE(engine.sampler()->total_samples(), 1u);
  const std::vector<obs::MetricsSample> series = engine.sampler()->Snapshot();
  ASSERT_FALSE(series.empty());
  const obs::MetricsSample& last = series.back();
  std::map<std::string, int64_t> values(last.values.begin(),
                                        last.values.end());
  EXPECT_EQ(values.at("counter.engine.queries_executed"), kQueries);
  EXPECT_EQ(values.at("gauge.engine.inflight_queries"), 0);
  EXPECT_EQ(values.at("gauge.engine.work_queue_depth"), 0);
  obs::JsonValue root;
  ASSERT_TRUE(obs::JsonValue::Parse(engine.sampler()->ToJson(), &root).ok());
}

TEST(ProfileTest, ConcurrentTpchProfilesStayIsolated) {
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig tpch_config;
  tpch_config.scale_factor = 0.002;
  db.Generate(tpch_config);
  TpchPlanConfig plan_config;

  ExecConfig config;
  config.uot = UotPolicy::LowUot(1);

  // Solo reference profile.
  auto solo_plan = BuildTpchPlan(3, db, plan_config);
  ExecutionStats solo_stats;
  {
    EngineConfig engine_config;
    engine_config.num_workers = 4;
    Engine engine(engine_config);
    solo_stats = engine.Execute(solo_plan.get(), config);
  }
  const obs::QueryProfile solo =
      obs::QueryProfile::FromRun(solo_plan.get(), solo_stats, {"q3"});

  // Four concurrent instances of the same query on one shared engine.
  constexpr int kQueries = 4;
  EngineConfig engine_config;
  engine_config.num_workers = 4;
  Engine engine(engine_config);
  std::vector<std::unique_ptr<QueryPlan>> plans;
  std::vector<ExecutionStats> stats(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    plans.push_back(BuildTpchPlan(3, db, plan_config));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kQueries; ++i) {
    threads.emplace_back([&, i] {
      stats[static_cast<size_t>(i)] =
          engine.Execute(plans[static_cast<size_t>(i)].get(), config);
    });
  }
  for (auto& t : threads) t.join();

  std::set<uint64_t> ids;
  for (int i = 0; i < kQueries; ++i) {
    const obs::QueryProfile profile = obs::QueryProfile::FromRun(
        plans[static_cast<size_t>(i)].get(), stats[static_cast<size_t>(i)],
        {"q3"});
    ids.insert(stats[static_cast<size_t>(i)].query_id);

    // Structure matches the solo run: same operators, same edges, and the
    // same deterministic payload volume over every edge — no bleed from
    // the other three queries sharing the pool.
    ASSERT_EQ(profile.operators().size(), solo.operators().size());
    for (size_t op = 0; op < solo.operators().size(); ++op) {
      EXPECT_EQ(profile.operators()[op].name, solo.operators()[op].name);
      EXPECT_GT(profile.operators()[op].num_work_orders, 0u);
    }
    ASSERT_EQ(profile.edges().size(), solo.edges().size());
    for (size_t e = 0; e < solo.edges().size(); ++e) {
      EXPECT_EQ(profile.edges()[e].producer, solo.edges()[e].producer);
      EXPECT_EQ(profile.edges()[e].consumer, solo.edges()[e].consumer);
      EXPECT_EQ(profile.edges()[e].bytes_delivered,
                solo.edges()[e].bytes_delivered)
          << "edge " << e << " of query " << i;
    }

    obs::QueryProfileSummary summary;
    ASSERT_TRUE(obs::ParseQueryProfileJson(profile.ToJson(), &summary).ok());
    EXPECT_EQ(summary.num_edges, solo.edges().size());
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kQueries));
}

}  // namespace
}  // namespace uot

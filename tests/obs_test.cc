#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/adaptive_uot_policy.h"
#include "exec/query_executor.h"
#include "obs/json_lite.h"
#include "obs/metrics.h"
#include "obs/trace_json.h"
#include "obs/trace_session.h"
#include "operators/build_hash_operator.h"
#include "operators/probe_hash_operator.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"
#include "util/timer.h"

namespace uot {
namespace {

using obs::ChromeTraceSummary;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::JsonValue;
using obs::MetricsRegistry;
using obs::ParseChromeTraceJson;
using obs::TraceEvent;
using obs::TraceEventType;
using obs::TracePhase;
using obs::TraceSession;

TEST(TraceSessionTest, ConcurrentEmissionFromManyThreads) {
  TraceSession session;
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&session, t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        const int64_t now = NowNanos();
        session.EmitComplete(TraceEventType::kWorkOrder,
                             static_cast<uint32_t>(t), now, now + 100,
                             /*arg0=*/i % 7, /*arg1=*/t);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(session.num_events(),
            static_cast<size_t>(kThreads) * kEventsPerThread);

  const std::vector<TraceEvent> events = session.SortedEvents();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads) * kEventsPerThread);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
}

TEST(TraceSessionTest, InterleavedSessionsKeepEventsSeparate) {
  TraceSession a;
  TraceSession b;
  // The same thread alternating between sessions exercises the
  // thread-local buffer cache's session-id check.
  for (int i = 0; i < 100; ++i) {
    a.EmitInstant(TraceEventType::kEdgeFlush, 0, i);
    b.EmitInstant(TraceEventType::kBlockTransfer, 0, i, -1, 2);
    b.EmitInstant(TraceEventType::kBlockTransfer, 0, i, -1, 2);
  }
  EXPECT_EQ(a.num_events(), 100u);
  EXPECT_EQ(b.num_events(), 200u);
}

TEST(TraceSessionTest, PerfettoJsonRoundTrips) {
  TraceSession session;
  session.SetThreadName(0, "coordinator");
  session.SetThreadName(1, "worker 0");
  session.SetOperatorNames({"sel(lineitem)", "probe(orders)"});
  const int64_t base = NowNanos();
  session.EmitComplete(TraceEventType::kQuery, 0, base, base + 5000, -1, -1,
                       3);
  session.EmitComplete(TraceEventType::kWorkOrder, 1, base + 100, base + 900,
                       0, 0);
  session.EmitInstant(TraceEventType::kBlockTransfer, 0, /*edge=*/0, -1, 4);
  session.EmitInstant(TraceEventType::kEdgeFlush, 0, /*edge=*/0);
  session.EmitCounter(TraceEventType::kMemoryBytes, /*category=*/2, 4096);
  session.EmitCounter(TraceEventType::kQueueDepth, /*queue=*/0, 7);

  const std::string json = session.ToChromeJson();
  ChromeTraceSummary summary;
  const Status status = ParseChromeTraceJson(json, &summary);
  ASSERT_TRUE(status.ok()) << status.ToString();

  // 6 events + 2 thread-name metadata records.
  EXPECT_EQ(summary.num_events, 8u);
  EXPECT_EQ(summary.num_metadata, 2u);
  EXPECT_EQ(summary.num_complete, 2u);
  EXPECT_EQ(summary.num_instant, 2u);
  EXPECT_EQ(summary.num_counter, 2u);
  EXPECT_TRUE(summary.timestamps_monotonic);
  EXPECT_GE(summary.last_ts_us, summary.first_ts_us);
}

TEST(TraceJsonTest, RejectsMalformedDocuments) {
  ChromeTraceSummary summary;
  EXPECT_FALSE(ParseChromeTraceJson("", &summary).ok());
  EXPECT_FALSE(ParseChromeTraceJson("{", &summary).ok());
  EXPECT_FALSE(ParseChromeTraceJson("[]", &summary).ok());
  // Valid JSON but no traceEvents array.
  EXPECT_FALSE(ParseChromeTraceJson("{\"a\": 1}", &summary).ok());
  // traceEvents must be an array.
  EXPECT_FALSE(ParseChromeTraceJson("{\"traceEvents\": 1}", &summary).ok());
  // Events must be objects.
  EXPECT_FALSE(ParseChromeTraceJson("{\"traceEvents\": [1]}", &summary).ok());
  // Trailing garbage.
  EXPECT_FALSE(
      ParseChromeTraceJson("{\"traceEvents\": []} x", &summary).ok());
  // Timestamped events must carry "ts".
  EXPECT_FALSE(ParseChromeTraceJson(
                   "{\"traceEvents\": [{\"ph\": \"X\"}]}", &summary)
                   .ok());
  // An event nested 1M deep fails cleanly instead of overflowing the stack.
  const std::string deep = "{\"traceEvents\": [{\"ph\": \"M\", \"args\": " +
                           std::string(1000000, '[') +
                           std::string(1000000, ']') + "}]}";
  EXPECT_EQ(ParseChromeTraceJson(deep, &summary).code(),
            StatusCode::kInvalidArgument);
  // A duplicated "traceEvents" key would count its events twice.
  EXPECT_EQ(ParseChromeTraceJson(
                "{\"traceEvents\": [{\"ph\": \"i\", \"ts\": 1}], "
                "\"traceEvents\": [{\"ph\": \"i\", \"ts\": 2}]}",
                &summary)
                .code(),
            StatusCode::kInvalidArgument);
  // A duplicated "ts" key leaves the event's time ambiguous.
  EXPECT_EQ(ParseChromeTraceJson(
                "{\"traceEvents\": [{\"ph\": \"i\", \"ts\": 1, \"ts\": 2}]}",
                &summary)
                .code(),
            StatusCode::kInvalidArgument);
  // An unpaired surrogate names no character.
  EXPECT_EQ(ParseChromeTraceJson(
                "{\"traceEvents\": [{\"ph\": \"M\", \"name\": \"\\ud800\"}]}",
                &summary)
                .code(),
            StatusCode::kInvalidArgument);
  // Minimal valid documents parse.
  EXPECT_TRUE(ParseChromeTraceJson("{\"traceEvents\": []}", &summary).ok());
  EXPECT_TRUE(ParseChromeTraceJson(
                  "{\"traceEvents\": [{\"ph\": \"M\", \"name\": \"x\"}]}",
                  &summary)
                  .ok());
  EXPECT_EQ(summary.num_metadata, 1u);
}

TEST(TraceJsonTest, DetectsNonMonotonicTimestamps) {
  ChromeTraceSummary summary;
  const Status status = ParseChromeTraceJson(
      "{\"traceEvents\": ["
      "{\"ph\": \"i\", \"ts\": 5.0},"
      "{\"ph\": \"i\", \"ts\": 3.0}"
      "]}",
      &summary);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(summary.timestamps_monotonic);
}

/// A kind-tagged rendering of `v`, members in file order.
std::string Describe(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.AsBool() ? "true" : "false";
    case JsonValue::Kind::kNumber: return "n" + std::to_string(v.AsDouble());
    case JsonValue::Kind::kString: return "s'" + v.AsString() + "'";
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (const JsonValue& e : v.AsArray()) out += Describe(e) + ",";
      return out + "]";
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      for (const std::string& key : v.ObjectKeys()) {
        out += key + ":" + Describe(*v.Find(key)) + ",";
      }
      return out + "}";
    }
  }
  return "?";
}

TEST(JsonLiteTest, StreamedElementsKeepNothingOfEarlierOnes) {
  // The streamed element is parsed into one reused value: each element
  // must read exactly as a fresh parse of its own text, whatever the
  // elements before it held.
  const std::vector<std::string> elements = {
      "{\"a\": 1, \"b\": {\"c\": [1, 2, 3], \"d\": \"a string past SSO\"}}",
      "{\"b\": {}}",
      "{\"b\": {\"c\": []}, \"a\": [true, null]}",
      "7",
      "{\"a\": \"x\"}",
      "[{\"b\": 1}, 2]",
      "{}",
      "{\"b\": {\"d\": \"y\", \"c\": [4]}, \"e\": false}",
      // An object after an array that was shorter than the object before.
      "{\"a\": 1, \"b\": 2, \"c\": 3}",
      "[]",
      "{\"x\": 1, \"y\": [2], \"z\": 3, \"w\": {}}",
  };
  std::string json = "{\"head\": 1, \"items\": [";
  for (size_t i = 0; i < elements.size(); ++i) {
    json += (i > 0 ? ", " : "") + elements[i];
  }
  json += "], \"tail\": [1]}";

  std::vector<std::string> seen;
  JsonValue root;
  ASSERT_TRUE(JsonValue::ParseStreaming(
                  json, "items",
                  [&seen](const JsonValue& e) {
                    seen.push_back(Describe(e));
                    return Status::OK();
                  },
                  &root)
                  .ok());
  ASSERT_EQ(seen.size(), elements.size());
  for (size_t i = 0; i < elements.size(); ++i) {
    JsonValue fresh;
    ASSERT_TRUE(JsonValue::Parse(elements[i], &fresh).ok());
    EXPECT_EQ(seen[i], Describe(fresh)) << elements[i];
  }
  EXPECT_EQ(Describe(root), "{head:n1.000000,items:[],tail:[n1.000000,],}");

  // A key repeated within one element is still a duplicate; the same key
  // in consecutive elements is not.
  const auto ignore = [](const JsonValue&) { return Status::OK(); };
  EXPECT_TRUE(JsonValue::ParseStreaming(
                  "{\"items\": [{\"a\": 1, \"b\": 2}, {\"b\": 1, \"a\": 2}]}",
                  "items", ignore, &root)
                  .ok());
  EXPECT_EQ(JsonValue::ParseStreaming(
                "{\"items\": [{\"a\": 1, \"b\": 2}, {\"b\": 1, \"b\": 2}]}",
                "items", ignore, &root)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({10, 100, 1000});
  ASSERT_EQ(h.num_buckets(), 4u);
  for (int64_t v : {-5, 0, 9, 10}) h.Record(v);    // bucket 0: v <= 10
  for (int64_t v : {11, 100}) h.Record(v);         // bucket 1: v <= 100
  for (int64_t v : {101, 999, 1000}) h.Record(v);  // bucket 2: v <= 1000
  for (int64_t v : {1001, 50000}) h.Record(v);     // overflow bucket
  EXPECT_EQ(h.bucket_count(0), 4u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 3u);
  EXPECT_EQ(h.bucket_count(3), 2u);
  EXPECT_EQ(h.TotalCount(), 11u);
  EXPECT_EQ(h.Min(), -5);
  EXPECT_EQ(h.Max(), 50000);
  EXPECT_EQ(h.bucket_upper_bound(0), 10);
  EXPECT_EQ(h.bucket_upper_bound(3), INT64_MAX);
  // The p50 of 11 samples is the 6th: value 100, the bound of bucket 1.
  EXPECT_EQ(h.ValueAtQuantile(0.5), 100);
  // The overflow bucket ends at the observed maximum.
  EXPECT_EQ(h.ValueAtQuantile(1.0), 50000);
}

TEST(HistogramTest, ValueAtQuantileInterpolatesInsideBuckets) {
  Histogram h({10, 20, 30, 40});
  for (int64_t v = 1; v <= 40; ++v) h.Record(v);  // 10 per bucket
  // Exact-rank quantiles land on the true order statistics.
  EXPECT_EQ(h.ValueAtQuantile(0.25), 10);
  EXPECT_EQ(h.ValueAtQuantile(0.50), 20);
  EXPECT_EQ(h.ValueAtQuantile(0.975), 39);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 40);
}

TEST(HistogramTest, ValueAtQuantileClampsToObservedRange) {
  // All samples land in one wide bucket: interpolation against the
  // nominal edges must not report values no sample ever had.
  Histogram h({1000});
  for (int64_t v = 0; v < 100; ++v) h.Record(v);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 99);
  EXPECT_GE(h.ValueAtQuantile(0.5), 0);
  EXPECT_LE(h.ValueAtQuantile(0.5), 99);
  // Overflow bucket: the upper edge is the observed max, not INT64_MAX.
  Histogram o({10});
  o.Record(50);
  o.Record(70);
  EXPECT_EQ(o.ValueAtQuantile(0.99), 70);
}

TEST(HistogramTest, SnapshotDigestsCountSumAndQuantiles) {
  Histogram h(Histogram::ExponentialBounds(1, 2.0, 16));
  const HistogramSnapshot empty = h.TakeSnapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.min, 0);
  EXPECT_EQ(empty.max, 0);
  EXPECT_EQ(empty.p99, 0);

  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramSnapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 1000 * 1001 / 2);
  EXPECT_EQ(snap.min, 1);
  EXPECT_EQ(snap.max, 1000);
  EXPECT_NEAR(snap.mean, 500.5, 0.01);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
  EXPECT_LE(snap.p99, snap.max);
}

TEST(HistogramTest, ExponentialBoundsStrictlyIncrease) {
  const std::vector<int64_t> bounds = Histogram::ExponentialBounds(1, 1.3, 40);
  ASSERT_EQ(bounds.size(), 40u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]) << "at " << i;
  }
}

TEST(HistogramTest, ConcurrentRecordsAreAllCounted) {
  Histogram h(Histogram::ExponentialBounds(1, 2.0, 16));
  constexpr int kThreads = 4;
  constexpr int kRecords = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kRecords; ++i) h.Record(i % 1024);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.TotalCount(), static_cast<uint64_t>(kThreads) * kRecords);
  uint64_t bucket_sum = 0;
  for (size_t i = 0; i < h.num_buckets(); ++i) bucket_sum += h.bucket_count(i);
  EXPECT_EQ(bucket_sum, h.TotalCount());
}

TEST(CounterTest, OverflowWrapsAround) {
  Counter c;
  c.Add(UINT64_MAX);
  EXPECT_EQ(c.Value(), UINT64_MAX);
  // Unsigned wraparound is the documented overflow behavior: a counter
  // that exceeds 2^64 - 1 must keep the query alive, not abort it.
  c.Add(2);
  EXPECT_EQ(c.Value(), 1u);
}

TEST(GaugeTest, TracksValueAndHighWaterMark) {
  Gauge g;
  g.Set(5);
  g.Set(3);
  EXPECT_EQ(g.Value(), 3);
  EXPECT_EQ(g.Max(), 5);
  g.Add(10);
  EXPECT_EQ(g.Value(), 13);
  EXPECT_EQ(g.Max(), 13);
  g.Add(-20);
  EXPECT_EQ(g.Value(), -7);
  EXPECT_EQ(g.Max(), 13);
}

TEST(MetricsRegistryTest, GetReturnsStablePointersAndFindLocates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("a.count");
  EXPECT_EQ(registry.GetCounter("a.count"), c);
  EXPECT_EQ(registry.FindCounter("a.count"), c);
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);
  Gauge* g = registry.GetGauge("b.gauge");
  EXPECT_EQ(registry.GetGauge("b.gauge"), g);
  Histogram* h = registry.GetHistogram("c.hist", {1, 2, 3});
  EXPECT_EQ(registry.GetHistogram("c.hist"), h);
  EXPECT_EQ(h->num_buckets(), 4u);
}

TEST(MetricsRegistryTest, JsonExportCoversAllMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("blocks.transferred")->Add(42);
  registry.GetGauge("queue.depth")->Set(7);
  Histogram* h = registry.GetHistogram("latency_ns", {100, 200});
  h->Record(50);
  h->Record(150);
  h->Record(500);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"blocks.transferred\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"queue.depth\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ns\""), std::string::npos);

  JsonValue root;
  ASSERT_TRUE(JsonValue::Parse(json, &root).ok());
  const JsonValue* gauge = root.Find("gauges")->Find("queue.depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->NumberOr("value", -1), 7);
  EXPECT_EQ(gauge->NumberOr("max", -1), 7);
  const JsonValue* hist = root.Find("histograms")->Find("latency_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->NumberOr("count", -1), 3);
  // One sample per bucket: <= 100, <= 200 and the overflow bucket.
  const std::vector<JsonValue>& buckets = hist->Find("buckets")->AsArray();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].NumberOr("le", -1), 100);
  EXPECT_EQ(buckets[1].NumberOr("le", -1), 200);
  EXPECT_EQ(buckets[2].StringOr("le", ""), "inf");
  for (const JsonValue& bucket : buckets) {
    EXPECT_EQ(bucket.NumberOr("count", -1), 1);
  }
}

/// Names with control characters must come out as valid JSON: JSON
/// forbids them raw inside strings, so the writer escapes them.
const char kControlName[] = "a\tb\nc\x01" "d";

TEST(JsonWriterTest, RegistryEscapesControlCharacters) {
  MetricsRegistry registry;
  registry.GetCounter(kControlName)->Add(3);
  registry.GetGauge(kControlName)->Set(4);
  registry.GetHistogram(kControlName, {10})->Record(5);
  JsonValue root;
  const Status status = JsonValue::Parse(registry.ToJson(), &root);
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (const char* section : {"counters", "gauges", "histograms"}) {
    EXPECT_NE(root.Find(section)->Find(kControlName), nullptr) << section;
  }
}

TEST(JsonWriterTest, BenchJsonEscapesStringsAndWritesNonFiniteAsNull) {
  bench::BenchJson json("escape_check");
  json.SetString(kControlName, kControlName);
  json.Set("nan", std::nan(""));
  json.Set("inf", INFINITY);
  json.Set("count", 12345678.0);
  json.Set("ratio", 0.5);
  JsonValue root;
  const Status status = JsonValue::Parse(json.ToJson(), &root);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(root.StringOr(kControlName, ""), kControlName);
  ASSERT_NE(root.Find("nan"), nullptr);
  EXPECT_TRUE(root.Find("nan")->is_null());
  EXPECT_TRUE(root.Find("inf")->is_null());
  EXPECT_EQ(root.NumberOr("count", -1), 12345678.0);
  EXPECT_EQ(root.NumberOr("ratio", -1), 0.5);
}

TEST(JsonWriterTest, SourceGitShaIsACommitWithADirtyMarkOrUnknown) {
  // Forty hex digits, then "-dirty" if tracked files differ from HEAD;
  // "unknown" outside a checkout.
  const std::string sha = bench::SourceGitSha();
  if (sha == "unknown") return;
  const std::string suffix = "-dirty";
  size_t hex = sha.size();
  if (sha.size() > suffix.size() &&
      sha.compare(sha.size() - suffix.size(), suffix.size(), suffix) == 0) {
    hex -= suffix.size();
  }
  ASSERT_EQ(hex, 40u) << sha;
  for (size_t i = 0; i < hex; ++i) {
    EXPECT_TRUE((sha[i] >= '0' && sha[i] <= '9') ||
                (sha[i] >= 'a' && sha[i] <= 'f'))
        << sha;
  }
  EXPECT_NE(bench::BenchJson("sha_check").ToJson().find(sha),
            std::string::npos);
}

/// End-to-end acceptance: a TPC-H query run with tracing enabled produces
/// a valid Chrome/Perfetto trace that agrees with the execution stats.
TEST(ObsIntegrationTest, TpchQueryTraceIsValidAndConsistent) {
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = 0.002;
  config.layout = Layout::kColumnStore;
  config.block_bytes = 16 * 1024;
  db.Generate(config);

  TpchPlanConfig plan_config;
  plan_config.block_bytes = 8 * 1024;
  auto plan = BuildTpchPlan(7, db, plan_config);

  TraceSession trace;
  ExecConfig exec;
  exec.num_workers = 4;
  exec.uot = UotPolicy::LowUot(1);
  exec.trace = &trace;
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
  ASSERT_GT(stats.records.size(), 0u);

  // The trace parses, is non-trivial, and its timestamps are sorted.
  const std::string json = trace.ToChromeJson();
  ChromeTraceSummary summary;
  const Status status = ParseChromeTraceJson(json, &summary);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(summary.timestamps_monotonic);
  // One span per work order plus the query span, plus one span per batched
  // join-kernel stage (the default kernel emits those per batch).
  size_t join_stage_spans = 0;
  for (const TraceEvent& e : trace.SortedEvents()) {
    if (e.type == TraceEventType::kJoinBatchStage) ++join_stage_spans;
  }
  EXPECT_GT(join_stage_spans, 0u);
  EXPECT_EQ(summary.num_complete,
            stats.records.size() + 1 + join_stage_spans);
  EXPECT_GT(summary.num_counter, 0u);   // queue depth + memory tracks
  EXPECT_GT(summary.num_instant, 0u);   // transfers, flushes, finishes
  EXPECT_GT(summary.num_metadata, 0u);  // thread names

  // The per-operator work-order counts cover every record.
  uint64_t op_work_orders = 0;
  for (const OperatorStats& os : stats.operators) {
    op_work_orders += os.num_work_orders;
  }
  EXPECT_EQ(op_work_orders, stats.records.size());
  // The tracker saw the hash-table high-water mark, and the trace carries
  // its counter track.
  EXPECT_GT(stats.PeakHashTableBytes(), 0);
  EXPECT_NE(json.find("\"memory.hash_table\""), std::string::npos);
  // The batched join kernels counted their batches in the operator stats:
  // probe batches on probe operators, build batches on build operators.
  uint64_t probe_batches = 0, build_batches = 0;
  for (int i = 0; i < plan->num_operators(); ++i) {
    const uint64_t batches =
        stats.operators[static_cast<size_t>(i)].join_batches;
    if (dynamic_cast<const ProbeHashOperator*>(plan->op(i)) != nullptr) {
      probe_batches += batches;
    } else if (dynamic_cast<const BuildHashOperator*>(plan->op(i)) !=
               nullptr) {
      build_batches += batches;
    } else {
      EXPECT_EQ(batches, 0u) << plan->op(i)->name();
    }
  }
  EXPECT_GT(probe_batches, 0u);
  EXPECT_GT(build_batches, 0u);

  // Round-trip through a file, as the benches and trace_explorer write it.
  const std::string path = ::testing::TempDir() + "/uot_q7.trace.json";
  ASSERT_TRUE(trace.WriteChromeJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string reread;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) reread.append(buf, n);
  std::fclose(f);
  ChromeTraceSummary reread_summary;
  ASSERT_TRUE(ParseChromeTraceJson(reread, &reread_summary).ok());
  EXPECT_EQ(reread_summary.num_events, summary.num_events);
}

/// Tracing disabled must leave no observable footprint (and, per the
/// acceptance criteria, no measurable overhead — the pointer is null and
/// every instrumentation site is a single branch).
TEST(ObsIntegrationTest, DisabledTracingLeavesNoFootprint) {
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = 0.002;
  config.layout = Layout::kColumnStore;
  config.block_bytes = 16 * 1024;
  db.Generate(config);

  TpchPlanConfig plan_config;
  plan_config.block_bytes = 8 * 1024;
  auto plan = BuildTpchPlan(1, db, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
  EXPECT_GT(stats.records.size(), 0u);
  EXPECT_EQ(exec.trace, nullptr);
}

TEST(ObsIntegrationTest, UotTrajectoryIsVisibleInTraceAndMetrics) {
  // Per-edge UoT observability: the exported trace carries one counter
  // track per edge (the UoT trajectory Perfetto renders as a step graph)
  // and an instant per adaptation; the stats count the same adaptations.
  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = 0.002;
  config.layout = Layout::kColumnStore;
  config.block_bytes = 16 * 1024;
  db.Generate(config);

  TpchPlanConfig plan_config;
  plan_config.block_bytes = 8 * 1024;
  auto plan = BuildTpchPlan(3, db, plan_config);

  TraceSession trace;
  ExecConfig exec;
  exec.num_workers = 4;
  exec.uot_policy = std::make_shared<AdaptiveUotPolicy>();
  exec.memory_budget_bytes = 1;  // constant pressure -> adaptations
  exec.trace = &trace;
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);

  size_t effective_events = 0, adapt_events = 0;
  for (const TraceEvent& e : trace.SortedEvents()) {
    if (e.type == TraceEventType::kUotEffective) ++effective_events;
    if (e.type == TraceEventType::kUotAdapt) ++adapt_events;
  }
  // Every streaming edge announces its starting UoT, then each adaptation
  // re-emits the counter: counter events strictly outnumber adaptations.
  ASSERT_GT(stats.edges.size(), 0u);
  EXPECT_GE(effective_events,
            stats.edges.size() + stats.uot_adaptations);
  EXPECT_GT(stats.uot_adaptations, 0u);
  EXPECT_EQ(adapt_events, stats.uot_adaptations);

  // The Chrome JSON still parses and carries the per-edge counter track.
  const std::string json = trace.ToChromeJson();
  ChromeTraceSummary summary;
  ASSERT_TRUE(ParseChromeTraceJson(json, &summary).ok());
  EXPECT_TRUE(summary.timestamps_monotonic);
  EXPECT_NE(json.find("uot.edge0.effective_blocks"), std::string::npos);
  EXPECT_NE(json.find("uot_adapt"), std::string::npos);
  EXPECT_NE(json.find("from_blocks"), std::string::npos);

  // The stats hold each edge's resolved UoT, as the counter tracks do.
  for (size_t e = 0; e < stats.edges.size(); ++e) {
    EXPECT_NE(stats.edges[e].final_uot_blocks, 0u) << "edge " << e;
  }
}

}  // namespace
}  // namespace uot

#include "obs/query_profile.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "obs/json_lite.h"
#include "plan/query_plan.h"

namespace uot {
namespace obs {

namespace {

/// UoT block counts in JSON are signed: -1 = whole-table, 0 = none.
int64_t JsonUot(uint64_t blocks) {
  if (blocks == UotPolicy::kWholeTable) return -1;
  return static_cast<int64_t>(blocks);
}

std::string FormatUot(uint64_t blocks) {
  if (blocks == 0) return "none";
  if (blocks == UotPolicy::kWholeTable) return "whole-table";
  return std::to_string(blocks);
}

std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " B", bytes);
  }
  return buf;
}

/// Appends `"key": `, preceded by ", " unless it is the object's first.
void AppendKey(std::string* out, const char* key, bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  *out += '"';
  *out += key;
  *out += "\": ";
}

void AppendField(std::string* out, const char* key, int64_t value,
                 bool* first) {
  AppendKey(out, key, first);
  *out += std::to_string(value);
}

void AppendFieldU(std::string* out, const char* key, uint64_t value,
                  bool* first) {
  AppendKey(out, key, first);
  *out += std::to_string(value);
}

void AppendFieldD(std::string* out, const char* key, double value,
                  bool* first) {
  AppendKey(out, key, first);
  AppendJsonNumber(out, value);
}

void AppendFieldS(std::string* out, const char* key, const std::string& value,
                  bool* first) {
  AppendKey(out, key, first);
  AppendJsonString(out, value);
}

void AppendSnapshot(std::string* out, const HistogramSnapshot& snap) {
  bool first = true;
  *out += '{';
  AppendFieldU(out, "count", snap.count, &first);
  AppendField(out, "sum", snap.sum, &first);
  AppendField(out, "min", snap.min, &first);
  AppendField(out, "max", snap.max, &first);
  AppendFieldD(out, "mean", snap.mean, &first);
  AppendField(out, "p50", snap.p50, &first);
  AppendField(out, "p95", snap.p95, &first);
  AppendField(out, "p99", snap.p99, &first);
  *out += '}';
}

HistogramSnapshot SnapshotOfDurations(const std::vector<WorkOrderRecord>& records,
                                      int op) {
  Histogram histogram(Histogram::DefaultLatencyBoundsNs());
  for (const WorkOrderRecord& r : records) {
    if (op >= 0 && r.op != op) continue;
    histogram.Record(r.duration_ns());
  }
  return histogram.TakeSnapshot();
}

/// Dispatch-to-start waits of the records that carry a dispatch time.
HistogramSnapshot SnapshotOfQueueWaits(
    const std::vector<WorkOrderRecord>& records) {
  Histogram histogram(Histogram::DefaultLatencyBoundsNs());
  for (const WorkOrderRecord& r : records) {
    if (r.dispatch_ns != 0) histogram.Record(r.queue_wait_ns());
  }
  return histogram.TakeSnapshot();
}

}  // namespace

double QueryProfile::Edge::WorstRelativeError() const {
  if (!has_prediction) return 0.0;
  const double transfer_den =
      static_cast<double>(std::max<uint64_t>(1, predicted_transfers));
  const double bytes_den =
      static_cast<double>(std::max<uint64_t>(1, est_bytes));
  return std::max(
      std::abs(static_cast<double>(residual_transfers)) / transfer_den,
      std::abs(static_cast<double>(residual_bytes)) / bytes_den);
}

QueryProfile QueryProfile::FromRun(const QueryPlan* plan,
                                   const ExecutionStats& stats,
                                   Options options) {
  QueryProfile profile;
  profile.query_name_ =
      options.query_name.empty() ? "query" : options.query_name;
  profile.stats_ = stats;
  profile.work_order_latency_ = SnapshotOfDurations(stats.records, -1);
  profile.queue_wait_ = SnapshotOfQueueWaits(stats.records);

  profile.operators_.reserve(stats.operators.size());
  for (size_t i = 0; i < stats.operators.size(); ++i) {
    OperatorEntry entry;
    static_cast<OperatorStats&>(entry) = stats.operators[i];
    entry.op = static_cast<int>(i);
    entry.avg_dop = stats.AverageDop(static_cast<int>(i));
    entry.latency = SnapshotOfDurations(stats.records, static_cast<int>(i));
    profile.operators_.push_back(std::move(entry));
  }

  profile.edges_.reserve(stats.edges.size());
  for (size_t i = 0; i < stats.edges.size(); ++i) {
    const EdgeStats& es = stats.edges[i];
    Edge edge;
    static_cast<EdgeStats&>(edge) = es;
    edge.edge = static_cast<int>(i);
    if (es.producer >= 0 &&
        static_cast<size_t>(es.producer) < stats.operators.size()) {
      edge.producer_name = stats.operators[static_cast<size_t>(es.producer)].name;
    }
    if (es.consumer >= 0 &&
        static_cast<size_t>(es.consumer) < stats.operators.size()) {
      edge.consumer_name = stats.operators[static_cast<size_t>(es.consumer)].name;
    }
    if (plan != nullptr &&
        static_cast<size_t>(plan->streaming_edges().size()) ==
            stats.edges.size()) {
      const auto prediction = plan->edge_prediction(static_cast<int>(i));
      if (prediction.has_value()) {
        edge.has_prediction = true;
        edge.predicted_uot_blocks = prediction->uot_blocks;
        edge.est_rows = prediction->est_rows;
        edge.est_bytes = prediction->est_bytes;
        edge.est_blocks = prediction->est_blocks;
        edge.predicted_transfers = prediction->predicted_transfers;
        edge.predicted_footprint_bytes = prediction->predicted_footprint_bytes;
        edge.predicted_cost_ns = prediction->predicted_cost_ns;
        edge.reason = prediction->reason;
        edge.residual_transfers =
            static_cast<int64_t>(edge.transfers) -
            static_cast<int64_t>(edge.predicted_transfers);
        edge.residual_bytes = static_cast<int64_t>(edge.bytes_delivered) -
                              static_cast<int64_t>(edge.est_bytes);
        edge.residual_footprint_bytes =
            static_cast<int64_t>(edge.max_buffered_bytes) -
            static_cast<int64_t>(edge.predicted_footprint_bytes);
      }
    }
    profile.edges_.push_back(std::move(edge));
  }
  return profile;
}

std::string QueryProfile::ToString() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "QueryProfile{%s, query_id=%" PRIu64
                ", %.2f ms, admission_wait=%.2f ms, %zu work orders}\n",
                query_name_.c_str(), stats_.query_id, stats_.QueryMillis(),
                static_cast<double>(stats_.admission_wait_ns) / 1e6,
                stats_.records.size());
  out += buf;
  if (!stats_.config_summary.empty()) {
    out += "  config: " + stats_.config_summary + "\n";
  }
  if (stats_.coordinator_events > 0 || queue_wait_.count > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  scheduler: coordinator busy %.2f ms over %" PRIu64
                  " events (%" PRIu64
                  " completions), queue wait p50/p95/p99 %.3f/%.3f/%.3f ms\n",
                  static_cast<double>(stats_.coordinator_busy_ns) / 1e6,
                  stats_.coordinator_events, stats_.completion_events,
                  static_cast<double>(queue_wait_.p50) / 1e6,
                  static_cast<double>(queue_wait_.p95) / 1e6,
                  static_cast<double>(queue_wait_.p99) / 1e6);
    out += buf;
  }
  for (const OperatorEntry& op : operators_) {
    std::snprintf(buf, sizeof(buf),
                  "  op[%d] %s: %" PRIu64
                  " work orders, task %.2f ms, span %.2f ms, finish %.2f ms, "
                  "dop %.2f, p50/p95/p99 %.2f/%.2f/%.2f ms",
                  op.op, op.name.c_str(), op.num_work_orders,
                  static_cast<double>(op.total_task_ns) / 1e6,
                  static_cast<double>(op.last_end_ns - op.first_start_ns) /
                      1e6,
                  static_cast<double>(op.finish_ns) / 1e6,
                  op.avg_dop, static_cast<double>(op.latency.p50) / 1e6,
                  static_cast<double>(op.latency.p95) / 1e6,
                  static_cast<double>(op.latency.p99) / 1e6);
    out += buf;
    if (op.join_batches > 0) {
      std::snprintf(buf, sizeof(buf),
                    ", join batches %" PRIu64 " (prefetches %" PRIu64 ")",
                    op.join_batches, op.join_prefetches);
      out += buf;
    }
    out += '\n';
  }
  for (const Edge& e : edges_) {
    std::snprintf(buf, sizeof(buf),
                  "  %s[%d] op%d -> op%d: uot=%s, transfers=%" PRIu64
                  ", delivered %s in %" PRIu64
                  " blocks, footprint peak %s",
                  e.fused ? "fused" : e.exchange ? "xchg" : "edge",
                  e.edge, e.producer,
                  e.consumer, FormatUot(e.final_uot_blocks).c_str(),
                  e.transfers, FormatBytes(e.bytes_delivered).c_str(),
                  e.blocks_delivered,
                  FormatBytes(e.max_buffered_bytes).c_str());
    out += buf;
    if (e.has_prediction) {
      std::snprintf(buf, sizeof(buf),
                    " | model: uot=%s, transfers=%" PRIu64 " (resid %+" PRId64
                    "), bytes=%s (resid %+" PRId64
                    "), footprint=%s (resid %+" PRId64 ") [%s]",
                    FormatUot(e.predicted_uot_blocks).c_str(),
                    e.predicted_transfers, e.residual_transfers,
                    FormatBytes(e.est_bytes).c_str(), e.residual_bytes,
                    FormatBytes(e.predicted_footprint_bytes).c_str(),
                    e.residual_footprint_bytes, e.reason.c_str());
      out += buf;
    }
    out += "\n";
  }
  for (const FusedChainStats& f : stats_.fused_chains) {
    std::string ops;
    for (size_t i = 0; i < f.ops.size(); ++i) {
      if (i > 0) ops += "->";
      ops += "op" + std::to_string(f.ops[i]);
    }
    std::snprintf(buf, sizeof(buf),
                  "  fused pipeline %s: %" PRIu64
                  " work orders, 0 intermediate transfers\n",
                  ops.c_str(), f.work_orders);
    out += buf;
    for (const FusedStageStats& s : f.stages) {
      std::snprintf(buf, sizeof(buf),
                    "    stage op[%d] %s (%s): %" PRIu64 " rows in, %" PRIu64
                    " rows out\n",
                    s.op, s.name.c_str(), s.kind.c_str(), s.rows_in,
                    s.rows_out);
      out += buf;
    }
  }
  for (const ExchangeStats& x : stats_.exchanges) {
    std::snprintf(buf, sizeof(buf),
                  "  exchange op[%d] %s: radix_bits=%d, %zu partitions, "
                  "%" PRIu64 " rows, skew %.2fx\n",
                  x.op, x.name.c_str(), x.radix_bits,
                  x.partition_rows.size(), x.TotalRows(), x.SkewRatio());
    out += buf;
    for (size_t p = 0; p < x.partition_rows.size(); ++p) {
      const uint64_t blocks =
          p < x.partition_blocks.size() ? x.partition_blocks[p] : 0;
      // One consumer work order per completed block, so `blocks` is also
      // the partition's downstream work-order count.
      std::snprintf(buf, sizeof(buf),
                    "    part[%zu]: %" PRIu64 " rows, %" PRIu64
                    " blocks/work orders\n",
                    p, x.partition_rows[p], blocks);
      out += buf;
    }
  }
  out += "  memory peaks:";
  for (int c = 0; c < kNumMemoryCategories; ++c) {
    std::snprintf(buf, sizeof(buf), " %s=%s",
                  MemoryCategoryName(static_cast<MemoryCategory>(c)),
                  FormatBytes(static_cast<uint64_t>(
                      std::max<int64_t>(0, stats_.peak_bytes[c]))).c_str());
    out += buf;
  }
  out += "\n";
  std::snprintf(buf, sizeof(buf),
                "  budget: %" PRIu64 " deferrals, %" PRIu64
                " stalls, %zu events | uot: %" PRIu64
                " adaptations, %zu decisions\n",
                stats_.budget_deferrals, stats_.budget_stalls,
                stats_.budget_events.size(), stats_.uot_adaptations,
                stats_.uot_decisions.size());
  out += buf;
  for (const UotDecisionRecord& d : stats_.uot_decisions) {
    std::snprintf(buf, sizeof(buf),
                  "    t+%.3f ms edge[%d] %s -> %s (%s)\n",
                  static_cast<double>(d.t_ns - stats_.query_start_ns) / 1e6,
                  d.edge, FormatUot(d.from_blocks).c_str(),
                  FormatUot(d.to_blocks).c_str(), UotAdaptCauseName(d.cause));
    out += buf;
  }
  return out;
}

std::string QueryProfile::CalibrationReport() const {
  std::vector<const Edge*> predicted;
  for (const Edge& e : edges_) {
    if (e.has_prediction) predicted.push_back(&e);
  }
  if (predicted.empty()) return "";
  std::sort(predicted.begin(), predicted.end(),
            [](const Edge* a, const Edge* b) {
              return a->WorstRelativeError() > b->WorstRelativeError();
            });
  std::string out = "Model calibration (" + query_name_ + "), worst first:\n";
  char buf[256];
  for (const Edge* e : predicted) {
    std::snprintf(
        buf, sizeof(buf),
        "  edge[%d] op%d->op%d rel_err=%.3f: transfers %" PRIu64
        " vs %" PRIu64 " pred, bytes %" PRIu64 " vs %" PRIu64
        " est, footprint %" PRIu64 " vs %" PRIu64 " pred [%s]\n",
        e->edge, e->producer, e->consumer, e->WorstRelativeError(),
        e->transfers, e->predicted_transfers, e->bytes_delivered,
        e->est_bytes, e->max_buffered_bytes, e->predicted_footprint_bytes,
        e->reason.c_str());
    out += buf;
  }
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\n  \"query\": ";
  {
    bool first = true;
    out += '{';
    AppendFieldS(&out, "name", query_name_, &first);
    AppendFieldU(&out, "id", stats_.query_id, &first);
    AppendField(&out, "start_ns", stats_.query_start_ns, &first);
    AppendField(&out, "end_ns", stats_.query_end_ns, &first);
    AppendFieldD(&out, "duration_ms", stats_.QueryMillis(), &first);
    AppendField(&out, "admission_wait_ns", stats_.admission_wait_ns, &first);
    AppendFieldU(&out, "work_orders",
                 static_cast<uint64_t>(stats_.records.size()), &first);
    AppendFieldS(&out, "config", stats_.config_summary, &first);
    // Optional: absent when zero, so documents of runs that predate the
    // coordinator/queue split stay byte-identical; validated when present.
    if (stats_.coordinator_events != 0) {
      AppendField(&out, "coordinator_busy_ns", stats_.coordinator_busy_ns,
                  &first);
      AppendFieldU(&out, "coordinator_events", stats_.coordinator_events,
                   &first);
      AppendFieldU(&out, "completion_events", stats_.completion_events,
                   &first);
    }
    out += ", \"latency\": ";
    AppendSnapshot(&out, work_order_latency_);
    if (queue_wait_.count != 0) {
      out += ", \"queue_wait\": ";
      AppendSnapshot(&out, queue_wait_);
    }
    out += '}';
  }
  out += ",\n  \"operators\": [";
  for (size_t i = 0; i < operators_.size(); ++i) {
    const OperatorEntry& op = operators_[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    bool first = true;
    AppendField(&out, "op", op.op, &first);
    AppendFieldS(&out, "name", op.name, &first);
    AppendFieldU(&out, "work_orders", op.num_work_orders, &first);
    AppendField(&out, "total_task_ns", op.total_task_ns, &first);
    AppendField(&out, "first_start_ns", op.first_start_ns, &first);
    AppendField(&out, "last_end_ns", op.last_end_ns, &first);
    // Optional: absent when zero, so documents of runs without Finish()
    // timing stay byte-identical; the validator accepts either.
    if (op.finish_ns != 0) {
      AppendField(&out, "finish_ns", op.finish_ns, &first);
    }
    // Optional: present only for operators that ran a join kernel.
    if (op.join_batches != 0) {
      AppendFieldU(&out, "join_batches", op.join_batches, &first);
      AppendFieldU(&out, "join_prefetches", op.join_prefetches, &first);
    }
    AppendFieldD(&out, "avg_dop", op.avg_dop, &first);
    out += ", \"latency\": ";
    AppendSnapshot(&out, op.latency);
    out += '}';
  }
  out += "\n  ],\n  \"edges\": [";
  for (size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    bool first = true;
    AppendField(&out, "edge", e.edge, &first);
    AppendField(&out, "producer", e.producer, &first);
    AppendField(&out, "consumer", e.consumer, &first);
    AppendFieldS(&out, "producer_name", e.producer_name, &first);
    AppendFieldS(&out, "consumer_name", e.consumer_name, &first);
    // "kind" is emitted only for exchange edges: profiles of
    // exchange-free plans stay byte-identical to pre-exchange builds,
    // and the validator treats the key as optional.
    if (e.fused) {
      AppendFieldS(&out, "kind", "fused", &first);
    } else if (e.exchange) {
      AppendFieldS(&out, "kind", "exchange", &first);
    }
    AppendField(&out, "uot_blocks", JsonUot(e.final_uot_blocks), &first);
    AppendFieldU(&out, "transfers", e.transfers, &first);
    AppendFieldU(&out, "blocks_produced", e.blocks_produced, &first);
    AppendFieldU(&out, "blocks_delivered", e.blocks_delivered, &first);
    AppendFieldU(&out, "bytes_delivered", e.bytes_delivered, &first);
    AppendFieldU(&out, "max_buffered_bytes", e.max_buffered_bytes, &first);
    AppendFieldU(&out, "max_buffered_blocks", e.max_buffered_blocks, &first);
    if (e.has_prediction) {
      out += ", \"prediction\": {";
      bool pf = true;
      AppendField(&out, "uot_blocks", JsonUot(e.predicted_uot_blocks), &pf);
      AppendFieldU(&out, "est_rows", e.est_rows, &pf);
      AppendFieldU(&out, "est_bytes", e.est_bytes, &pf);
      AppendFieldU(&out, "est_blocks", e.est_blocks, &pf);
      AppendFieldU(&out, "transfers", e.predicted_transfers, &pf);
      AppendFieldU(&out, "footprint_bytes", e.predicted_footprint_bytes, &pf);
      AppendFieldD(&out, "cost_ns", e.predicted_cost_ns, &pf);
      AppendFieldS(&out, "reason", e.reason, &pf);
      out += "}, \"residuals\": {";
      bool rf = true;
      AppendField(&out, "transfers", e.residual_transfers, &rf);
      AppendField(&out, "bytes", e.residual_bytes, &rf);
      AppendField(&out, "footprint_bytes", e.residual_footprint_bytes, &rf);
      AppendFieldD(&out, "rel_err", e.WorstRelativeError(), &rf);
      out += '}';
    }
    out += '}';
  }
  out += "\n  ]";
  // Optional section (absent under vectorized execution, so pre-fusion
  // profile documents and consumers are unaffected).
  if (!stats_.fused_chains.empty()) {
    out += ",\n  \"fused_pipelines\": [";
    for (size_t i = 0; i < stats_.fused_chains.size(); ++i) {
      const FusedChainStats& f = stats_.fused_chains[i];
      out += i == 0 ? "\n    {" : ",\n    {";
      out += "\"ops\": [";
      for (size_t o = 0; o < f.ops.size(); ++o) {
        if (o > 0) out += ", ";
        out += std::to_string(f.ops[o]);
      }
      out += "]";
      bool first = false;
      AppendFieldU(&out, "work_orders", f.work_orders, &first);
      out += ", \"stages\": [";
      for (size_t s = 0; s < f.stages.size(); ++s) {
        const FusedStageStats& st = f.stages[s];
        out += s == 0 ? "\n      {" : ",\n      {";
        bool sf = true;
        AppendField(&out, "op", st.op, &sf);
        AppendFieldS(&out, "name", st.name, &sf);
        AppendFieldS(&out, "kind", st.kind, &sf);
        AppendFieldU(&out, "rows_in", st.rows_in, &sf);
        AppendFieldU(&out, "rows_out", st.rows_out, &sf);
        out += '}';
      }
      out += "]}";
    }
    out += "\n  ]";
  }
  // Optional section (absent when the plan has no exchange operators, so
  // pre-exchange profile documents and consumers are unaffected).
  if (!stats_.exchanges.empty()) {
    out += ",\n  \"exchanges\": [";
    for (size_t i = 0; i < stats_.exchanges.size(); ++i) {
      const ExchangeStats& x = stats_.exchanges[i];
      out += i == 0 ? "\n    {" : ",\n    {";
      bool first = true;
      AppendField(&out, "op", x.op, &first);
      AppendFieldS(&out, "name", x.name, &first);
      AppendField(&out, "radix_bits", x.radix_bits, &first);
      AppendFieldU(&out, "total_rows", x.TotalRows(), &first);
      AppendFieldD(&out, "skew", x.SkewRatio(), &first);
      out += ", \"partition_rows\": [";
      for (size_t p = 0; p < x.partition_rows.size(); ++p) {
        if (p > 0) out += ", ";
        out += std::to_string(x.partition_rows[p]);
      }
      out += "], \"partition_blocks\": [";
      for (size_t p = 0; p < x.partition_blocks.size(); ++p) {
        if (p > 0) out += ", ";
        out += std::to_string(x.partition_blocks[p]);
      }
      out += "]}";
    }
    out += "\n  ]";
  }
  out += ",\n  \"memory\": {\"peak_bytes\": {";
  for (int c = 0; c < kNumMemoryCategories; ++c) {
    if (c > 0) out += ", ";
    AppendJsonString(&out,
                     MemoryCategoryName(static_cast<MemoryCategory>(c)));
    out += ": " + std::to_string(stats_.peak_bytes[c]);
  }
  out += "}},\n  \"budget\": {";
  {
    bool first = true;
    AppendFieldU(&out, "deferrals", stats_.budget_deferrals, &first);
    AppendFieldU(&out, "stalls", stats_.budget_stalls, &first);
    out += ", \"events\": [";
    for (size_t i = 0; i < stats_.budget_events.size(); ++i) {
      const BudgetEventRecord& ev = stats_.budget_events[i];
      out += i == 0 ? "\n      {" : ",\n      {";
      bool ef = true;
      AppendField(&out, "t_ns", ev.t_ns, &ef);
      AppendField(&out, "op", ev.op, &ef);
      AppendFieldS(&out, "kind", ev.release ? "release" : "defer", &ef);
      AppendField(&out, "tracked_bytes", ev.tracked_bytes, &ef);
      out += '}';
    }
    out += "]";
  }
  out += "},\n  \"uot\": {";
  {
    bool first = true;
    AppendFieldU(&out, "adaptations", stats_.uot_adaptations, &first);
    out += ", \"decisions\": [";
    for (size_t i = 0; i < stats_.uot_decisions.size(); ++i) {
      const UotDecisionRecord& d = stats_.uot_decisions[i];
      out += i == 0 ? "\n      {" : ",\n      {";
      bool df = true;
      AppendField(&out, "t_ns", d.t_ns, &df);
      AppendField(&out, "edge", d.edge, &df);
      AppendField(&out, "from_blocks", JsonUot(d.from_blocks), &df);
      AppendField(&out, "to_blocks", JsonUot(d.to_blocks), &df);
      AppendFieldS(&out, "cause", UotAdaptCauseName(d.cause), &df);
      out += '}';
    }
    out += "]";
  }
  out += "}\n}\n";
  return out;
}

Status QueryProfile::WriteJson(const std::string& path) const {
  return WriteWholeFile(path, ToJson());
}

namespace {

Status ProfileError(const std::string& what) {
  return Status::InvalidArgument("query profile JSON: " + what);
}

Status RequireNumber(const JsonValue& object, const char* key,
                     const char* where) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || !v->is_number()) {
    return ProfileError(std::string("missing numeric \"") + key + "\" in " +
                        where);
  }
  return Status::OK();
}

Status ValidateSnapshot(const JsonValue& object, const char* where) {
  for (const char* key : {"count", "sum", "min", "max", "p50", "p95", "p99"}) {
    UOT_RETURN_IF_ERROR(RequireNumber(object, key, where));
  }
  return Status::OK();
}

}  // namespace

Status ParseQueryProfileJson(std::string_view json,
                             QueryProfileSummary* summary) {
  UOT_CHECK(summary != nullptr);
  *summary = QueryProfileSummary();
  JsonValue root;
  UOT_RETURN_IF_ERROR(JsonValue::Parse(json, &root));
  if (!root.is_object()) return ProfileError("top level is not an object");

  const JsonValue* query = root.Find("query");
  if (query == nullptr || !query->is_object()) {
    return ProfileError("missing \"query\" object");
  }
  const JsonValue* name = query->Find("name");
  if (name == nullptr || !name->is_string()) {
    return ProfileError("missing \"query.name\" string");
  }
  summary->query_name = name->AsString();
  UOT_RETURN_IF_ERROR(RequireNumber(*query, "id", "query"));
  summary->query_id = static_cast<uint64_t>(query->NumberOr("id", 0));
  for (const char* key :
       {"start_ns", "end_ns", "duration_ms", "admission_wait_ns",
        "work_orders"}) {
    UOT_RETURN_IF_ERROR(RequireNumber(*query, key, "query"));
  }
  const JsonValue* query_latency = query->Find("latency");
  if (query_latency == nullptr || !query_latency->is_object()) {
    return ProfileError("missing \"query.latency\" object");
  }
  UOT_RETURN_IF_ERROR(ValidateSnapshot(*query_latency, "query.latency"));
  // Optional coordinator/queue split: all three counters or none.
  const JsonValue* coordinator_events = query->Find("coordinator_events");
  if (coordinator_events != nullptr) {
    for (const char* key : {"coordinator_busy_ns", "coordinator_events",
                            "completion_events"}) {
      UOT_RETURN_IF_ERROR(RequireNumber(*query, key, "query"));
    }
    summary->coordinator_events =
        static_cast<uint64_t>(coordinator_events->AsInt64());
    summary->completion_events =
        static_cast<uint64_t>(query->Find("completion_events")->AsInt64());
    if (summary->completion_events > summary->coordinator_events) {
      return ProfileError("query \"completion_events\" exceeds "
                          "\"coordinator_events\"");
    }
  } else if (query->Find("coordinator_busy_ns") != nullptr ||
             query->Find("completion_events") != nullptr) {
    return ProfileError("query coordinator counters are incomplete");
  }
  const JsonValue* queue_wait = query->Find("queue_wait");
  if (queue_wait != nullptr) {
    if (!queue_wait->is_object()) {
      return ProfileError("\"query.queue_wait\" is not an object");
    }
    UOT_RETURN_IF_ERROR(ValidateSnapshot(*queue_wait, "query.queue_wait"));
  }

  const JsonValue* operators = root.Find("operators");
  if (operators == nullptr || !operators->is_array()) {
    return ProfileError("missing \"operators\" array");
  }
  for (const JsonValue& op : operators->AsArray()) {
    if (!op.is_object()) return ProfileError("operator entry is not an object");
    UOT_RETURN_IF_ERROR(RequireNumber(op, "op", "operator"));
    UOT_RETURN_IF_ERROR(RequireNumber(op, "work_orders", "operator"));
    for (const char* key : {"finish_ns", "join_batches", "join_prefetches"}) {
      const JsonValue* optional = op.Find(key);
      if (optional != nullptr && !optional->is_number()) {
        return ProfileError(std::string("operator \"") + key +
                            "\" must be a number");
      }
    }
    const JsonValue* op_name = op.Find("name");
    if (op_name == nullptr || !op_name->is_string()) {
      return ProfileError("operator entry missing \"name\"");
    }
    const JsonValue* latency = op.Find("latency");
    if (latency == nullptr || !latency->is_object()) {
      return ProfileError("operator entry missing \"latency\"");
    }
    UOT_RETURN_IF_ERROR(ValidateSnapshot(*latency, "operator.latency"));
  }
  summary->num_operators = operators->AsArray().size();

  const JsonValue* edges = root.Find("edges");
  if (edges == nullptr || !edges->is_array()) {
    return ProfileError("missing \"edges\" array");
  }
  for (const JsonValue& edge : edges->AsArray()) {
    if (!edge.is_object()) return ProfileError("edge entry is not an object");
    for (const char* key :
         {"edge", "producer", "consumer", "uot_blocks", "transfers",
          "blocks_produced", "blocks_delivered", "bytes_delivered",
          "max_buffered_bytes"}) {
      UOT_RETURN_IF_ERROR(RequireNumber(edge, key, "edge"));
    }
    // Optional edge kind tag (absent in pre-exchange documents, which
    // therefore keep validating; present = "exchange"|"pipeline"|"fused").
    const JsonValue* kind = edge.Find("kind");
    if (kind != nullptr) {
      if (!kind->is_string() || (kind->AsString() != "exchange" &&
                                 kind->AsString() != "pipeline" &&
                                 kind->AsString() != "fused")) {
        return ProfileError("edge \"kind\" must be exchange|pipeline|fused");
      }
      if (kind->AsString() == "exchange") ++summary->num_exchange_edges;
      if (kind->AsString() == "fused") ++summary->num_fused_edges;
    }
    const JsonValue* prediction = edge.Find("prediction");
    const JsonValue* residuals = edge.Find("residuals");
    if ((prediction == nullptr) != (residuals == nullptr)) {
      return ProfileError("edge has prediction without residuals (or vice versa)");
    }
    if (prediction != nullptr) {
      if (!prediction->is_object() || !residuals->is_object()) {
        return ProfileError("edge prediction/residuals are not objects");
      }
      for (const char* key :
           {"uot_blocks", "est_rows", "est_bytes", "est_blocks", "transfers",
            "footprint_bytes", "cost_ns"}) {
        UOT_RETURN_IF_ERROR(RequireNumber(*prediction, key, "prediction"));
      }
      for (const char* key : {"transfers", "bytes", "footprint_bytes"}) {
        UOT_RETURN_IF_ERROR(RequireNumber(*residuals, key, "residuals"));
      }
      ++summary->num_predicted_edges;
    }
  }
  summary->num_edges = edges->AsArray().size();

  // Optional "fused_pipelines" section: per-chain stage row flow. Absent
  // in pre-fusion documents and vectorized runs; validated when present.
  const JsonValue* fused = root.Find("fused_pipelines");
  if (fused != nullptr) {
    if (!fused->is_array()) {
      return ProfileError("\"fused_pipelines\" is not an array");
    }
    for (const JsonValue& f : fused->AsArray()) {
      if (!f.is_object()) {
        return ProfileError("fused pipeline entry is not an object");
      }
      UOT_RETURN_IF_ERROR(RequireNumber(f, "work_orders", "fused pipeline"));
      const JsonValue* ops = f.Find("ops");
      if (ops == nullptr || !ops->is_array()) {
        return ProfileError("fused pipeline entry missing \"ops\" array");
      }
      for (const JsonValue& v : ops->AsArray()) {
        if (!v.is_number()) {
          return ProfileError("fused pipeline \"ops\" holds a non-number");
        }
      }
      const JsonValue* stages = f.Find("stages");
      if (stages == nullptr || !stages->is_array()) {
        return ProfileError("fused pipeline entry missing \"stages\" array");
      }
      for (const JsonValue& s : stages->AsArray()) {
        if (!s.is_object()) {
          return ProfileError("fused stage entry is not an object");
        }
        for (const char* key : {"op", "rows_in", "rows_out"}) {
          UOT_RETURN_IF_ERROR(RequireNumber(s, key, "fused stage"));
        }
        const JsonValue* stage_kind = s.Find("kind");
        if (stage_kind == nullptr || !stage_kind->is_string()) {
          return ProfileError("fused stage entry missing \"kind\"");
        }
      }
    }
    summary->num_fused_chains = fused->AsArray().size();
  }

  // Optional "exchanges" section: per-operator partition histograms.
  // Absent in pre-exchange documents; validated when present.
  const JsonValue* exchanges = root.Find("exchanges");
  if (exchanges != nullptr) {
    if (!exchanges->is_array()) {
      return ProfileError("\"exchanges\" is not an array");
    }
    for (const JsonValue& x : exchanges->AsArray()) {
      if (!x.is_object()) {
        return ProfileError("exchange entry is not an object");
      }
      for (const char* key : {"op", "radix_bits", "total_rows"}) {
        UOT_RETURN_IF_ERROR(RequireNumber(x, key, "exchange"));
      }
      for (const char* key : {"partition_rows", "partition_blocks"}) {
        const JsonValue* arr = x.Find(key);
        if (arr == nullptr || !arr->is_array()) {
          return ProfileError(std::string("exchange entry missing \"") + key +
                              "\" array");
        }
        for (const JsonValue& v : arr->AsArray()) {
          if (!v.is_number()) {
            return ProfileError(std::string("exchange \"") + key +
                                "\" holds a non-number");
          }
        }
      }
    }
    summary->num_exchanges = exchanges->AsArray().size();
  }

  const JsonValue* memory = root.Find("memory");
  if (memory == nullptr || !memory->is_object() ||
      memory->Find("peak_bytes") == nullptr ||
      !memory->Find("peak_bytes")->is_object()) {
    return ProfileError("missing \"memory.peak_bytes\" object");
  }

  const JsonValue* budget = root.Find("budget");
  if (budget == nullptr || !budget->is_object()) {
    return ProfileError("missing \"budget\" object");
  }
  UOT_RETURN_IF_ERROR(RequireNumber(*budget, "deferrals", "budget"));
  UOT_RETURN_IF_ERROR(RequireNumber(*budget, "stalls", "budget"));
  const JsonValue* events = budget->Find("events");
  if (events == nullptr || !events->is_array()) {
    return ProfileError("missing \"budget.events\" array");
  }
  for (const JsonValue& ev : events->AsArray()) {
    if (!ev.is_object()) return ProfileError("budget event is not an object");
    UOT_RETURN_IF_ERROR(RequireNumber(ev, "t_ns", "budget event"));
    const JsonValue* kind = ev.Find("kind");
    if (kind == nullptr || !kind->is_string() ||
        (kind->AsString() != "defer" && kind->AsString() != "release")) {
      return ProfileError("budget event \"kind\" must be defer|release");
    }
  }
  summary->num_budget_events = events->AsArray().size();

  const JsonValue* uot = root.Find("uot");
  if (uot == nullptr || !uot->is_object()) {
    return ProfileError("missing \"uot\" object");
  }
  UOT_RETURN_IF_ERROR(RequireNumber(*uot, "adaptations", "uot"));
  const JsonValue* decisions = uot->Find("decisions");
  if (decisions == nullptr || !decisions->is_array()) {
    return ProfileError("missing \"uot.decisions\" array");
  }
  int64_t last_t = INT64_MIN;
  for (const JsonValue& d : decisions->AsArray()) {
    if (!d.is_object()) return ProfileError("uot decision is not an object");
    for (const char* key : {"t_ns", "edge", "from_blocks", "to_blocks"}) {
      UOT_RETURN_IF_ERROR(RequireNumber(d, key, "uot decision"));
    }
    const JsonValue* cause = d.Find("cause");
    if (cause == nullptr || !cause->is_string()) {
      return ProfileError("uot decision missing \"cause\"");
    }
    const int64_t t = d.Find("t_ns")->AsInt64();
    if (t < last_t) {
      return ProfileError("uot decisions are not in time order");
    }
    last_t = t;
  }
  summary->num_uot_decisions = decisions->AsArray().size();

  return Status::OK();
}

}  // namespace obs
}  // namespace uot

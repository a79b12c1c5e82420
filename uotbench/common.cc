#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/trace_json.h"
#include "ssb/ssb_queries.h"
#include "tpch/tpch_queries.h"

namespace uotbench {

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t end = std::min(s.find(sep, start), s.size());
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool SameField(const std::string& a, const std::string& b) {
  if (a == b) return true;
  char* end_a = nullptr;
  char* end_b = nullptr;
  const double x = std::strtod(a.c_str(), &end_a);
  const double y = std::strtod(b.c_str(), &end_b);
  if (a.empty() || b.empty() || *end_a != '\0' || *end_b != '\0') {
    return false;
  }
  return std::abs(x - y) <= 2e-6 * std::max(std::abs(x), std::abs(y));
}

}  // namespace

bool SameRows(const std::string& reference, const std::string& rows) {
  if (reference == rows) return true;
  const std::vector<std::string> ref_lines = Split(reference, '\n');
  const std::vector<std::string> lines = Split(rows, '\n');
  if (ref_lines.size() != lines.size()) return false;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (ref_lines[i] == lines[i]) continue;
    const std::vector<std::string> ref_fields = Split(ref_lines[i], ',');
    const std::vector<std::string> fields = Split(lines[i], ',');
    if (ref_fields.size() != fields.size()) return false;
    for (size_t f = 0; f < fields.size(); ++f) {
      if (!SameField(ref_fields[f], fields[f])) return false;
    }
  }
  return true;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Full-precision number for the result line (JSON has no inf/nan).
std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Metric{value, unit};
}

void Result::Fail(const std::string& why) {
  problems_.push_back(why);
  std::fprintf(stderr, "uotbench: FAILED: %s\n", why.c_str());
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Metric& m = metrics_.at(name);
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

uint64_t SpanRecorder::Record(const char* layer, const std::string& name,
                              int64_t start_ns, int64_t end_ns,
                              uint64_t request, uint64_t parent, int tid) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.request = request;
  span.layer = layer;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.tid = tid;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

uot::Status SpanRecorder::WriteAndValidate(const std::string& path) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  char buf[96];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << JsonEscape(s.name) << "\",\"cat\":\"" << s.layer
       << "\",\"ph\":\"X\",";
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << buf << "\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}}";
  }
  os << "]}\n";
  const std::string json = os.str();
  {
    std::ofstream out(path);
    out << json;
    if (!out) return uot::Status::Internal("cannot write " + path);
  }
  std::ifstream in(path);
  std::stringstream read_back;
  read_back << in.rdbuf();
  uot::obs::ChromeTraceSummary summary;
  uot::Status status = uot::obs::ParseChromeTraceJson(read_back.str(),
                                                      &summary);
  if (!status.ok()) return status;
  if (summary.num_complete != spans.size() || !summary.timestamps_monotonic) {
    return uot::Status::Internal("trace " + path +
                                 " lost spans or is out of order");
  }
  return uot::Status::OK();
}

std::string MetaJson(const RunOptions& options, double scale_factor) {
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::ostringstream os;
  os << "{\"uotbench_meta\": {\"workload\": \"" << JsonEscape(options.workload)
     << "\", \"seed\": " << options.seed
     << ", \"seconds\": " << Number(options.seconds)
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"scale_factor\": " << Number(scale_factor)
     << ", \"workers\": " << kWorkers
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"l2_bytes\": " << l2 << ", \"l3_bytes\": " << l3
     << ", \"compiler\": \"" << JsonEscape(UOTBENCH_COMPILER)
     << "\", \"build_type\": \"" << JsonEscape(UOTBENCH_BUILD_TYPE)
     << "\", \"source\": \"" << JsonEscape(options.source_id) << "\"}}";
  return os.str();
}

void FinishTracedRun(const RunOptions& options, const SpanRecorder& spans,
                     std::map<std::string, double>* metrics, Result* result) {
  const double residual = (*metrics)["residual_frac"];
  if (residual > kMaxResidualFrac) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "residual_frac %.4f above %.2f", residual,
                  kMaxResidualFrac);
    result->Fail(buf);
  }
  (*metrics)["error_rate"] = result->error_rate();
  const std::string trace_path = options.trace_dir + "/" + options.workload +
                                 "-" + std::to_string(options.seed) +
                                 ".trace.json";
  const uot::Status status = spans.WriteAndValidate(trace_path);
  if (!status.ok()) result->Fail(status.ToString());
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = metrics->find(name);
    result->Set(name, it == metrics->end() ? 0.0 : it->second, unit);
  }
}

const std::vector<std::string>& StatementClasses() {
  static const std::vector<std::string> classes = {
      "li_count",        "li_flag_sum", "ord_count", "tpch6",
      "li_status_count", "join_count",  "tpch1",     "li_minmax"};
  return classes;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"plan.build_ms", "ms"},
        {"model.choose_ms", "ms"},
        {"exec.call_ms", "ms"},
        {"exec.session_overhead_ms", "ms"},
        {"exec.admission_wait_ms", "ms"},
        {"exec.admission_wait_p99_ms", "ms"},
        {"scheduler.query_ms", "ms"},
        {"scheduler.worker_busy_ms", "ms"},
        {"scheduler.worker_idle_frac", "frac"},
        {"scheduler.work_orders", "count"},
        {"scheduler.gap_us_per_work_order", "us"},
        {"scheduler.transfers", "count"},
        {"scheduler.blocks_produced", "count"},
        {"scheduler.bytes_delivered_mb", "MB"},
    };
    for (const char* kind :
         {"select", "build", "probe", "aggregate", "fused", "other"}) {
      m.emplace_back(std::string("operators.") + kind + ".task_ms", "ms");
      m.emplace_back(std::string("operators.") + kind + ".work_orders",
                     "count");
    }
    m.insert(m.end(), {{"fused.chains", "count"},
                       {"fused.work_orders", "count"},
                       {"fused.interior_edges", "count"},
                       {"storage.peak_temp_mb", "MB"},
                       {"storage.peak_hash_table_mb", "MB"}});
    for (int q : uot::SupportedTpchQueries()) {
      m.emplace_back("query.tpch_q" + std::to_string(q) + "_ms", "ms");
    }
    for (int q : uot::SupportedSsbQueries()) {
      m.emplace_back("query.ssb_q" + std::to_string(q) + "_ms", "ms");
    }
    m.insert(m.end(), {{"server.handle_p50_ms", "ms"},
                       {"server.handle_p99_ms", "ms"},
                       {"server.exec_p50_ms", "ms"},
                       {"server.exec_p99_ms", "ms"},
                       {"server.nonexec_p50_ms", "ms"},
                       {"server.nonexec_p99_ms", "ms"},
                       {"wire.overhead_p50_ms", "ms"}});
    for (const std::string& c : StatementClasses()) {
      if (c.rfind("tpch", 0) != 0) {
        m.emplace_back("server.parse_us." + c, "us");
      }
    }
    for (const std::string& c : StatementClasses()) {
      m.emplace_back("server.compile_us." + c, "us");
    }
    m.insert(m.end(), {{"server.cache_hit_rate", "frac"},
                       {"server.cache_misses", "count"},
                       {"server.model_evaluations", "count"}});
    for (const std::string& c : StatementClasses()) {
      m.emplace_back("stmt." + c + ".p50_ms", "ms");
    }
    m.insert(m.end(), {{"client.send_lag_p99_ms", "ms"},
                       {"client.open_p50_ms", "ms"},
                       {"client.open_p99_ms", "ms"},
                       {"error_rate", "frac"},
                       {"residual_frac", "frac"},
                       {"trace.overhead_frac", "frac"}});
    return m;
  }();
  return metrics;
}

}  // namespace uotbench

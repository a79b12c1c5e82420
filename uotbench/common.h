// Shared pieces of the repository benchmark (uotbench): run options, the
// result record printed as the last stdout line, order statistics, the
// in-memory span recorder of traced runs, and the result comparison.
//
// The benchmark measures the engine from outside: it times calls into the
// public API (plan builders, the cost-model chooser, Engine, FrontEnd,
// ParseSelect, PlanCompiler) and reads what those calls return. Nothing in
// the engine is instrumented for it.

#ifndef UOTBENCH_COMMON_H_
#define UOTBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/timer.h"

namespace uotbench {

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scale-factor override (0 = the workload's own); smoke runs shrink it.
  double scale_factor = 0;
  /// Set-up repetitions; set_up_s reports their median.
  int setup_reps = 3;
  /// Identifies the sources that were built (git sha or content digest).
  std::string source_id = "unknown";
  /// Directory the traced run writes its Chrome trace into.
  std::string trace_dir = ".";
};

/// Engine pool size and client concurrency of every workload.
inline constexpr int kWorkers = 4;

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The p-quantile (0 <= p <= 1) by linear interpolation; 0 when empty.
double Quantile(std::vector<double> values, double p);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
/// Geometric mean of positive values; 0 when empty.
double Geomean(const std::vector<double>& values);

/// True when two canonical results (uot::CanonicalRows lines) hold the
/// same rows. Doubles are printed with 7 significant digits, and the
/// aggregation order varies with scheduling, so a value on a rounding
/// boundary may print one unit apart in the last digit: numeric fields
/// match within a relative 2e-6.
bool SameRows(const std::string& reference, const std::string& rows);

/// What one run reports: the operation counts and the metrics of the
/// requested kind (end-to-end untraced, per-layer traced).
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one checked operation; `ok` false counts it as failed.
  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Marks the run incorrect for a reason other than a failed operation
  /// (a broken accounting identity, an invalid trace).
  void Fail(const std::string& why);

  bool correct() const { return failed_ == 0 && problems_.empty(); }
  double error_rate() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

  /// The one-line JSON object the benchmark contract asks for.
  std::string ToJson() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

/// Spans recorded by the traced run around calls into the engine's public
/// API. Kept in memory; written once at the end as Chrome trace JSON and
/// checked with the engine's own trace validator. Disabled spans cost one
/// branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Records [start_ns, end_ns) as `name` in layer `layer`. `request`
  /// groups the spans of one query or request; `parent` is the id returned
  /// for the enclosing span (0 = none). Returns the span's id.
  uint64_t Record(const char* layer, const std::string& name, int64_t start_ns,
                  int64_t end_ns, uint64_t request, uint64_t parent = 0,
                  int tid = 0);
  /// Writes the spans as Chrome trace JSON and re-reads the file through
  /// obs::ParseChromeTraceJson.
  uot::Status WriteAndValidate(const std::string& path) const;

 private:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    const char* layer = "";
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int tid = 0;
  };
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  uint64_t next_id_ = 1;     // guarded by mutex_
};

/// The machine/build/run description printed before the result line.
std::string MetaJson(const RunOptions& options, double scale_factor);

/// Workload entry points. Each fills `result` and returns false when the
/// run could not proceed at all (set-up failure).
bool RunTpchVectorized(const RunOptions& options, Result* result);
bool RunSsbFused(const RunOptions& options, Result* result);
bool RunServerMix(const RunOptions& options, Result* result);

/// The eight statement classes of the server mix, in mix order.
const std::vector<std::string>& StatementClasses();

/// Every per-layer metric with its unit, in output order. Workloads that
/// leave a layer idle report it as 0, so each traced run emits the full
/// set.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Tolerated |whole - sum of parts| / whole in the traced run.
inline constexpr double kMaxResidualFrac = 0.05;

/// Ends a traced run: fails it when (*metrics)["residual_frac"] exceeds
/// kMaxResidualFrac, adds error_rate, writes and validates the trace as
/// <trace_dir>/<workload>-<seed>.trace.json, and emits every per-layer
/// metric (0 for those the workload did not set).
void FinishTracedRun(const RunOptions& options, const SpanRecorder& spans,
                     std::map<std::string, double>* metrics, Result* result);

}  // namespace uotbench

#endif  // UOTBENCH_COMMON_H_

#ifndef UOT_BENCH_BENCH_UTIL_H_
#define UOT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "exec/query_executor.h"
#include "obs/json_lite.h"
#include "obs/trace_json.h"
#include "obs/trace_session.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace uot {
namespace bench {

/// Environment knobs shared by every bench binary:
///   UOT_SF       TPC-H scale factor (default 0.05)
///   UOT_THREADS  worker threads     (default 4)
///   UOT_RUNS     repetitions; the mean of the best ceil(runs*0.6) runs is
///                reported, mirroring the paper's best-3-of-10 (default 3)
inline double ScaleFactor() {
  const char* env = std::getenv("UOT_SF");
  return env != nullptr ? std::atof(env) : 0.05;
}

inline int Threads() {
  const char* env = std::getenv("UOT_THREADS");
  if (env != nullptr) return std::atoi(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

inline int Runs() {
  const char* env = std::getenv("UOT_RUNS");
  return env != nullptr ? std::atoi(env) : 3;
}

/// The paper's block-size grid (Table V).
inline const std::vector<size_t>& PaperBlockSizes() {
  static const std::vector<size_t>* kSizes =
      new std::vector<size_t>{128 * 1024, 512 * 1024, 2 * 1024 * 1024};
  return *kSizes;
}

/// Block sizes scaled so blocks-per-table stays comparable to the paper's
/// SF-50 setting at laptop scale factors (DESIGN.md substitution 1): the
/// paper's 128KB / 512KB / 2MB grid maps to 16KB / 64KB / 256KB at the
/// default SF. Override with UOT_BLOCK_SCALE (a multiplier).
inline size_t BlockScale() {
  const char* env = std::getenv("UOT_BLOCK_SCALE");
  return env != nullptr ? static_cast<size_t>(std::atoi(env)) : 1;
}
inline size_t SmallBlockBytes() { return 16 * 1024 * BlockScale(); }
inline size_t MidBlockBytes() { return 64 * 1024 * BlockScale(); }
inline size_t LargeBlockBytes() { return 256 * 1024 * BlockScale(); }

inline std::string HumanBytes(size_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%zuMB", bytes / (1024 * 1024));
  } else {
    std::snprintf(buf, sizeof(buf), "%zuKB", bytes / 1024);
  }
  return buf;
}

/// Builds (and caches per block size/layout) a TPC-H database.
class TpchFixture {
 public:
  TpchFixture(double scale_factor, Layout layout, size_t block_bytes)
      : storage_(std::make_unique<StorageManager>()),
        db_(std::make_unique<TpchDatabase>(storage_.get())) {
    TpchConfig config;
    config.scale_factor = scale_factor;
    config.layout = layout;
    config.block_bytes = block_bytes;
    db_->Generate(config);
  }

  const TpchDatabase& db() const { return *db_; }
  StorageManager* storage() { return storage_.get(); }

 private:
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<TpchDatabase> db_;
};

/// Runs one query several times and returns the stats of a representative
/// run plus the mean-of-best query time.
struct QueryTiming {
  double best_mean_ms = 0.0;
  ExecutionStats stats;  // stats of the fastest run
  std::unique_ptr<QueryPlan> plan;  // plan of the fastest run (results)
};

inline QueryTiming TimeQuery(int query, const TpchDatabase& db,
                             const TpchPlanConfig& plan_config,
                             const ExecConfig& exec_config, int runs) {
  QueryTiming out;
  std::vector<double> times;
  double best = 1e300;
  for (int r = 0; r < runs; ++r) {
    auto plan = BuildTpchPlan(query, db, plan_config);
    ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec_config);
    const double ms = stats.QueryMillis();
    times.push_back(ms);
    if (ms < best) {
      best = ms;
      out.stats = std::move(stats);
      out.plan = std::move(plan);
    }
  }
  std::sort(times.begin(), times.end());
  const size_t keep =
      std::max<size_t>(1, (times.size() * 6 + 9) / 10);  // best ~60%
  double sum = 0;
  for (size_t i = 0; i < keep && i < times.size(); ++i) sum += times[i];
  out.best_mean_ms = sum / static_cast<double>(std::min(keep, times.size()));
  return out;
}

/// One query execution with a trace attached: the benches read
/// per-operator and memory figures from its ExecutionStats and can dump
/// the trace for Perfetto.
struct ObservedRun {
  ExecutionStats stats;
  std::unique_ptr<QueryPlan> plan;
  std::unique_ptr<obs::TraceSession> trace;
};

/// Runs one query with a fresh TraceSession attached.
inline ObservedRun RunObserved(int query, const TpchDatabase& db,
                               const TpchPlanConfig& plan_config,
                               ExecConfig exec_config) {
  ObservedRun out;
  out.trace = std::make_unique<obs::TraceSession>();
  exec_config.trace = out.trace.get();
  out.plan = BuildTpchPlan(query, db, plan_config);
  out.stats = QueryExecutor::Execute(out.plan.get(), exec_config);
  return out;
}

/// When UOT_OBS_DIR is set, writes `<dir>/<prefix>.trace.json` and prints
/// where it went. The trace is loadable in https://ui.perfetto.dev.
inline void MaybeExportObs(const ObservedRun& run,
                           const std::string& prefix) {
  const char* dir = std::getenv("UOT_OBS_DIR");
  if (dir == nullptr || run.trace == nullptr) return;
  const std::string trace_path = std::string(dir) + "/" + prefix +
                                 ".trace.json";
  const Status trace_status = run.trace->WriteChromeJson(trace_path);
  if (trace_status.ok()) {
    std::printf("  [obs] wrote %s\n", trace_path.c_str());
  } else {
    std::printf("  [obs] export failed: %s\n",
                trace_status.ToString().c_str());
  }
}

/// The source tree's current git commit, with "-dirty" appended when a
/// tracked file differs from it (figures measured on edited sources are not
/// that commit's), or "unknown" outside a checkout.
inline std::string SourceGitSha() {
  const std::string git = std::string("git -C '") + UOT_BENCH_SOURCE_DIR + "' ";
  std::FILE* pipe = ::popen((git + "rev-parse HEAD 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  ::pclose(pipe);
  std::string sha = got ? buf : "";
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (sha.empty()) return "unknown";
  // `git diff --quiet` exits 1 when tracked files differ from HEAD.
  const int status =
      std::system((git + "diff --quiet HEAD -- >/dev/null 2>&1").c_str());
  if (status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 1) {
    sha += "-dirty";
  }
  return sha;
}

/// Machine-readable bench output: ordered key -> value rows written as
/// `BENCH_<name>.json` so CI can track a perf trajectory over commits.
/// The directory comes from UOT_BENCH_JSON_DIR (default: current dir).
/// Values are numbers (Set; JSON has no NaN or infinity, so those are
/// written as null) or strings (SetString); insertion order is
/// preserved in the emitted object. Every file starts with the machine and
/// build it was measured on (nproc, L3 bytes, compiler, build type, git
/// sha): figures from different setups are not comparable.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    Set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
    Set("l3_bytes", static_cast<double>(::sysconf(_SC_LEVEL3_CACHE_SIZE)));
    SetString("compiler", UOT_BENCH_COMPILER);
    SetString("build_type", UOT_BENCH_BUILD_TYPE);
    SetString("git_sha", SourceGitSha());
  }

  void Set(const std::string& key, double value) {
    // Counts and byte sizes print exactly; measurements keep 6 digits.
    // Range first: casting NaN, inf or an out-of-range double is undefined.
    const bool integral = std::isfinite(value) && std::abs(value) < 1e15 &&
                          value == static_cast<double>(
                                       static_cast<int64_t>(value));
    std::string text;
    if (integral) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0f", value);
      text = buf;
    } else {
      obs::AppendJsonNumber(&text, value);
    }
    rows_.emplace_back(key, std::move(text));
  }

  void SetString(const std::string& key, const std::string& value) {
    std::string quoted;
    obs::AppendJsonString(&quoted, value);
    rows_.emplace_back(key, std::move(quoted));
  }

  std::string ToJson() const {
    std::string out = "{\n  \"bench\": ";
    obs::AppendJsonString(&out, name_);
    for (const auto& [key, value] : rows_) {
      out += ",\n  ";
      obs::AppendJsonString(&out, key);
      out += ": " + value;
    }
    out += "\n}\n";
    return out;
  }

  /// Writes BENCH_<name>.json and prints where it went (or why not).
  void Write() const {
    const char* dir = std::getenv("UOT_BENCH_JSON_DIR");
    const std::string path =
        std::string(dir != nullptr ? dir : ".") + "/BENCH_" + name_ + ".json";
    const Status status = obs::WriteWholeFile(path, ToJson());
    if (status.ok()) {
      std::printf("  [bench] wrote %s\n", path.c_str());
    } else {
      std::printf("  [bench] %s\n", status.ToString().c_str());
    }
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> rows_;
};

/// Index of the first probe operator consuming the lineitem select's
/// output — the paper's "first consumer operator in the pipeline" (Fig. 5).
/// Returns -1 if the query has no select(lineitem) -> probe chain.
inline int FirstLineitemConsumer(const QueryPlan& plan) {
  int sel_lineitem = -1;
  for (int i = 0; i < plan.num_operators(); ++i) {
    if (plan.op(i)->name() == "sel(lineitem)") {
      sel_lineitem = i;
      break;
    }
  }
  if (sel_lineitem < 0) return -1;
  for (const QueryPlan::StreamingEdge& e : plan.streaming_edges()) {
    if (e.producer == sel_lineitem &&
        plan.op(e.consumer)->name().rfind("probe", 0) == 0) {
      return e.consumer;
    }
  }
  return -1;
}

/// Operators of the select(lineitem) -> probe -> probe ... chain (the
/// paper's "deep operator chains", Fig. 6): the select plus every probe
/// reachable from it over streaming edges.
inline std::vector<int> LineitemChain(const QueryPlan& plan) {
  std::vector<int> chain;
  int current = -1;
  for (int i = 0; i < plan.num_operators(); ++i) {
    if (plan.op(i)->name() == "sel(lineitem)") {
      current = i;
      break;
    }
  }
  if (current < 0) return chain;
  chain.push_back(current);
  bool extended = true;
  while (extended) {
    extended = false;
    for (const QueryPlan::StreamingEdge& e : plan.streaming_edges()) {
      if (e.producer == chain.back() &&
          plan.op(e.consumer)->name().rfind("probe", 0) == 0) {
        chain.push_back(e.consumer);
        extended = true;
        break;
      }
    }
  }
  return chain;
}

/// Wall-clock span (ms) covering the given operators' work orders.
inline double ChainSpanMillis(const ExecutionStats& stats,
                              const std::vector<int>& ops) {
  int64_t first = INT64_MAX, last = 0;
  for (int op : ops) {
    const OperatorStats& os = stats.operators[static_cast<size_t>(op)];
    if (os.num_work_orders == 0) continue;
    first = std::min(first, os.first_start_ns);
    last = std::max(last, os.last_end_ns);
  }
  if (first == INT64_MAX) return 0.0;
  return static_cast<double>(last - first) / 1e6;
}

}  // namespace bench
}  // namespace uot

#endif  // UOT_BENCH_BENCH_UTIL_H_

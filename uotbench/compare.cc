// uotbench_compare: compares two result sets of the repository benchmark.
//
//   uotbench_compare <BENCHMARK.json> <dir A (parent)> <dir B (change)>
//
// A result set is a directory of captured run outputs: each file holds the
// stdout of one `uotbench/run.py` run (its {"uotbench_meta": ...} line and
// the result line). For every (workload, metric) pair the tool prints each
// side's run count, quartiles and median, the change of the median and a
// verdict against the metric's bound in BENCHMARK.json:
//   worse       B's median is worse than A's by more than the bound
//   better      B's median is better than A's by more than A's own spread
//               (quartile distance over median)
//   same        neither
//   unresolved  the spread of either side exceeds the bound, unless every
//               run of one side beats every run of the other
// Per-layer metrics have no bound and get no verdict. Quartiles follow
// Python's statistics.quantiles(values, n=4).
// Exits 1 when any pair is worse, 0 otherwise, 2 on bad input.

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_lite.h"

namespace {

using uot::obs::JsonValue;

struct MetricSpec {
  std::string unit;
  bool higher_is_better = false;
  double bound = -1;  // < 0: per-layer, no verdict
};

struct Key {
  std::string workload;
  std::string metric;
  bool operator<(const Key& o) const {
    return workload != o.workload ? workload < o.workload : metric < o.metric;
  }
};

using ResultSet = std::map<Key, std::vector<double>>;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool LoadSpec(const std::string& path, std::map<std::string, MetricSpec>* out) {
  std::string text;
  JsonValue doc;
  if (!ReadFile(path, &text) || !JsonValue::Parse(text, &doc).ok() ||
      !doc.is_object()) {
    std::fprintf(stderr, "cannot parse %s\n", path.c_str());
    return false;
  }
  for (const char* list : {"end_to_end", "per_layer"}) {
    const JsonValue* metrics = doc.Find(list);
    if (metrics == nullptr || !metrics->is_array()) continue;
    for (const JsonValue& m : metrics->AsArray()) {
      MetricSpec spec;
      spec.unit = m.StringOr("unit", "");
      spec.higher_is_better = m.StringOr("better", "lower") == "higher";
      spec.bound = m.NumberOr("bound", -1);
      (*out)[m.StringOr("name", "")] = spec;
    }
  }
  return true;
}

/// Reads every run output in `dir` into `out`. Files without a result
/// line are skipped with a note.
bool LoadResults(const std::string& dir, ResultSet* out) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", dir.c_str());
    return false;
  }
  std::vector<std::string> names;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    std::string text;
    if (!ReadFile(dir + "/" + name, &text)) continue;
    std::string workload;
    const JsonValue* metrics = nullptr;
    JsonValue result;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      JsonValue doc;
      if (line.empty() || line[0] != '{' ||
          !JsonValue::Parse(line, &doc).ok()) {
        continue;
      }
      if (const JsonValue* meta = doc.Find("uotbench_meta")) {
        workload = meta->StringOr("workload", "");
      } else if (doc.Find("metrics") != nullptr) {
        result = doc;
        metrics = result.Find("metrics");
      }
    }
    if (workload.empty() || metrics == nullptr || !metrics->is_object()) {
      std::fprintf(stderr, "note: %s/%s holds no result, skipped\n",
                   dir.c_str(), name.c_str());
      continue;
    }
    for (const std::string& metric : metrics->ObjectKeys()) {
      const JsonValue* m = metrics->Find(metric);
      (*out)[Key{workload, metric}].push_back(m->NumberOr("value", 0));
    }
  }
  return true;
}

/// statistics.quantiles(values, n=4) (method 'exclusive'); needs >= 2
/// values, otherwise every quartile is the single value.
void Quartiles(std::vector<double> v, double q[3]) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) {
    q[0] = q[1] = q[2] = ld == 1 ? v[0] : 0.0;
    return;
  }
  const long n = 4;
  const long m = ld + 1;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    q[i - 1] = (v[static_cast<size_t>(j - 1)] * static_cast<double>(n - delta) +
                v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               static_cast<double>(n);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: uotbench_compare <BENCHMARK.json> <dir A> <dir B>\n");
    return 2;
  }
  std::map<std::string, MetricSpec> specs;
  ResultSet a, b;
  if (!LoadSpec(argv[1], &specs) || !LoadResults(argv[2], &a) ||
      !LoadResults(argv[3], &b)) {
    return 2;
  }
  std::printf("%-16s %-34s %-6s %4s %12s %12s %12s %4s %12s %12s %12s %8s "
              "%6s %s\n",
              "workload", "metric", "unit", "nA", "q1A", "medA", "q3A", "nB",
              "q1B", "medB", "q3B", "delta%", "bound%", "verdict");
  bool any_worse = false;
  for (const auto& [key, values_a] : a) {
    const auto it = b.find(key);
    if (it == b.end()) continue;
    const std::vector<double>& values_b = it->second;
    const auto spec_it = specs.find(key.metric);
    const MetricSpec spec =
        spec_it != specs.end() ? spec_it->second : MetricSpec{};
    double qa[3], qb[3];
    Quartiles(values_a, qa);
    Quartiles(values_b, qb);
    const double sign = spec.higher_is_better ? -1.0 : 1.0;
    // Positive = B worse than A, as a share of A's median.
    const double worse = qa[1] != 0 ? sign * (qb[1] - qa[1]) / qa[1] : 0.0;
    std::string verdict = "-";
    if (spec.bound >= 0) {
      const double spread_a = qa[1] != 0 ? (qa[2] - qa[0]) / qa[1] : 0.0;
      const double spread_b = qb[1] != 0 ? (qb[2] - qb[0]) / qb[1] : 0.0;
      const auto [min_a, max_a] =
          std::minmax_element(values_a.begin(), values_a.end());
      const auto [min_b, max_b] =
          std::minmax_element(values_b.begin(), values_b.end());
      // Every run of B strictly better (or worse) than every run of A.
      const bool b_dominates = spec.higher_is_better ? *min_b > *max_a
                                                     : *max_b < *min_a;
      const bool a_dominates = spec.higher_is_better ? *min_a > *max_b
                                                     : *max_a < *min_b;
      if (std::max(spread_a, spread_b) > spec.bound && !b_dominates &&
          !a_dominates) {
        verdict = "unresolved";
      } else if (worse > spec.bound) {
        verdict = "worse";
        any_worse = true;
      } else if (-worse > spread_a) {
        verdict = "better";
      } else {
        verdict = "same";
      }
    }
    char bound[16] = "-";
    if (spec.bound >= 0) {
      std::snprintf(bound, sizeof(bound), "%.1f", 100 * spec.bound);
    }
    std::printf("%-16s %-34s %-6s %4zu %12.4g %12.4g %12.4g %4zu %12.4g "
                "%12.4g %12.4g %+8.2f %6s %s\n",
                key.workload.c_str(), key.metric.c_str(), spec.unit.c_str(),
                values_a.size(), qa[0], qa[1], qa[2], values_b.size(), qb[0],
                qb[1], qb[2], 100 * worse, bound, verdict.c_str());
  }
  return any_worse ? 1 : 0;
}

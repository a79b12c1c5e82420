#include "scheduler/execution_stats.h"

#include <algorithm>
#include <cstdio>

namespace uot {

double ExecutionStats::AverageDop(int op) const {
  // Sweep the +1/-1 events of this operator's work orders.
  std::vector<std::pair<int64_t, int>> events;
  for (const WorkOrderRecord& r : records) {
    if (r.op != op) continue;
    events.emplace_back(r.start_ns, +1);
    events.emplace_back(r.end_ns, -1);
  }
  if (events.empty()) return 0.0;
  std::sort(events.begin(), events.end());
  int64_t busy_weighted = 0;
  int64_t span_start = events.front().first;
  int64_t prev = span_start;
  int running = 0;
  for (const auto& [ts, delta] : events) {
    busy_weighted += running * (ts - prev);
    running += delta;
    prev = ts;
  }
  // Zero span (all records share one timestamp, possible on coarse clocks):
  // there is no interval to integrate over, so the DOP is defined as 0
  // rather than NaN or an arbitrary count.
  const int64_t span = prev - span_start;
  if (span <= 0) return 0.0;
  return static_cast<double>(busy_weighted) / static_cast<double>(span);
}

std::string ExecutionStats::ToString() const {
  std::string out;
  char line[256];
  if (!config_summary.empty()) out += config_summary + "\n";
  std::snprintf(line, sizeof(line), "query: %.3f ms, %zu work orders\n",
                QueryMillis(), records.size());
  out += line;
  int64_t queue_wait_ns = 0;
  for (const WorkOrderRecord& r : records) queue_wait_ns += r.queue_wait_ns();
  std::snprintf(line, sizeof(line),
                "  coordinator busy=%.3f ms events=%llu (completions=%llu), "
                "queue wait=%.3f ms\n",
                static_cast<double>(coordinator_busy_ns) / 1e6,
                static_cast<unsigned long long>(coordinator_events),
                static_cast<unsigned long long>(completion_events),
                static_cast<double>(queue_wait_ns) / 1e6);
  out += line;
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorStats& s = operators[i];
    std::snprintf(line, sizeof(line),
                  "  [%zu] %-24s tasks=%-6llu total=%9.3f ms avg=%8.4f ms "
                  "span=%9.3f ms finish=%8.3f ms\n",
                  i, s.name.c_str(),
                  static_cast<unsigned long long>(s.num_work_orders),
                  s.total_task_ms(), s.avg_task_ms(), s.span_ms(),
                  s.finish_ms());
    out += line;
  }
  out += "  memory peaks:";
  for (int c = 0; c < kNumMemoryCategories; ++c) {
    std::snprintf(line, sizeof(line), " %s=%lld B (%.2f MiB)",
                  MemoryCategoryName(static_cast<MemoryCategory>(c)),
                  static_cast<long long>(peak_bytes[c]),
                  static_cast<double>(peak_bytes[c]) / (1024.0 * 1024.0));
    out += line;
  }
  out += "\n";
  if (!edges.empty()) {
    out += "  edge transfers:";
    for (size_t e = 0; e < edges.size(); ++e) {
      std::snprintf(line, sizeof(line), " [%zu]=%llu", e,
                    static_cast<unsigned long long>(edges[e].transfers));
      out += line;
    }
    out += "\n";
  }
  if (budget_deferrals > 0 || budget_stalls > 0 || uot_adaptations > 0) {
    std::snprintf(line, sizeof(line),
                  "  budget deferrals=%llu stalls=%llu, uot adaptations=%llu"
                  "\n",
                  static_cast<unsigned long long>(budget_deferrals),
                  static_cast<unsigned long long>(budget_stalls),
                  static_cast<unsigned long long>(uot_adaptations));
    out += line;
  }
  return out;
}

}  // namespace uot

#include "scheduler/execution_stats.h"

#include <algorithm>

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

}  // namespace uot

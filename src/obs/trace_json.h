#ifndef UOT_OBS_TRACE_JSON_H_
#define UOT_OBS_TRACE_JSON_H_

#include <cstddef>
#include <string_view>

#include "util/status.h"

namespace uot {
namespace obs {

/// What a structural parse of a Chrome/Perfetto trace_event JSON file
/// found. Metadata events ("ph":"M") are counted separately and excluded
/// from the timestamp checks (they carry no "ts").
struct ChromeTraceSummary {
  size_t num_events = 0;  // all entries of "traceEvents"
  size_t num_complete = 0;
  size_t num_instant = 0;
  size_t num_counter = 0;
  size_t num_metadata = 0;
  /// True when the "ts" fields of timestamped events are non-decreasing
  /// in file order (the exporter sorts, so round-trips must preserve it).
  bool timestamps_monotonic = true;
  double first_ts_us = 0.0;
  double last_ts_us = 0.0;
};

/// Validates that `json` is a well-formed JSON document whose top level is
/// an object with a "traceEvents" array of event objects, and fills
/// `summary`. The document is read by json_lite with all of its checks
/// (json_lite.h), streaming the events one at a time, so a trace of any
/// size is validated without holding more than one event in memory.
Status ParseChromeTraceJson(std::string_view json,
                            ChromeTraceSummary* summary);

}  // namespace obs
}  // namespace uot

#endif  // UOT_OBS_TRACE_JSON_H_

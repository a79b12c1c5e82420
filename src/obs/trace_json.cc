#include "obs/trace_json.h"

#include <string>

#include "obs/json_lite.h"
#include "util/macros.h"

namespace uot {
namespace obs {

Status ParseChromeTraceJson(std::string_view json,
                            ChromeTraceSummary* summary) {
  UOT_CHECK(summary != nullptr);
  *summary = ChromeTraceSummary{};
  const auto invalid = [summary](const std::string& what) {
    return Status::InvalidArgument("trace JSON: event " +
                                   std::to_string(summary->num_events) + " " +
                                   what);
  };
  bool have_ts = false;
  const auto on_event = [&](const JsonValue& event) -> Status {
    if (!event.is_object()) return invalid("is not an object");
    const JsonValue* ts = event.Find("ts");
    if (ts != nullptr && !ts->is_number()) {
      return invalid("has a non-numeric \"ts\"");
    }
    const std::string ph = event.StringOr("ph", "");
    if (ph != "M" && ts == nullptr) return invalid("is missing \"ts\"");
    ++summary->num_events;
    if (ph == "X") ++summary->num_complete;
    else if (ph == "i" || ph == "I") ++summary->num_instant;
    else if (ph == "C") ++summary->num_counter;
    else if (ph == "M") ++summary->num_metadata;
    if (ph == "M") return Status::OK();
    const double t = ts->AsDouble();
    if (have_ts && t < summary->last_ts_us) {
      summary->timestamps_monotonic = false;
    }
    if (!have_ts) summary->first_ts_us = t;
    have_ts = true;
    summary->last_ts_us = t;
    return Status::OK();
  };
  JsonValue root;
  UOT_RETURN_IF_ERROR(
      JsonValue::ParseStreaming(json, "traceEvents", on_event, &root));
  if (root.Find("traceEvents") == nullptr) {
    return Status::InvalidArgument("trace JSON: missing \"traceEvents\" array");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace uot

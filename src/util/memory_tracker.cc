#include "util/memory_tracker.h"

#include <string>

#include "obs/metrics.h"
#include "obs/trace_session.h"

namespace uot {

const char* MemoryCategoryName(MemoryCategory category) {
  switch (category) {
    case MemoryCategory::kBaseTable: return "base_table";
    case MemoryCategory::kTemporaryTable: return "temporary_table";
    case MemoryCategory::kHashTable: return "hash_table";
    case MemoryCategory::kOther: return "other";
    case MemoryCategory::kAggregation: return "aggregation";
  }
  return "unknown";
}

void MemoryTracker::AttachObservers(obs::TraceSession* trace,
                                    obs::MetricsRegistry* metrics) {
  observers_active_.store(false, std::memory_order_relaxed);
  trace_ = trace;
  for (int c = 0; c < kNumMemoryCategories; ++c) {
    gauges_[c] =
        metrics == nullptr
            ? nullptr
            : metrics->GetGauge(
                  std::string("memory.") +
                  MemoryCategoryName(static_cast<MemoryCategory>(c)) +
                  ".bytes");
  }
  observers_active_.store(trace != nullptr || metrics != nullptr,
                          std::memory_order_relaxed);
}

void MemoryTracker::Observe(MemoryCategory category, int64_t current_bytes) {
  const int c = static_cast<int>(category);
  if (trace_ != nullptr) {
    trace_->EmitCounter(obs::TraceEventType::kMemoryBytes, c, current_bytes);
  }
  if (gauges_[c] != nullptr) {
    gauges_[c]->Set(current_bytes);
  }
}

}  // namespace uot

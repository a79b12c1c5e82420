#include "util/memory_tracker.h"

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

void MemoryTracker::AttachObservers(obs::TraceSession* trace) {
  observers_active_.store(false, std::memory_order_relaxed);
  trace_ = trace;
  observers_active_.store(trace != nullptr, std::memory_order_relaxed);
}

void MemoryTracker::Observe(MemoryCategory category, int64_t current_bytes) {
  trace_->EmitCounter(obs::TraceEventType::kMemoryBytes,
                      static_cast<int>(category), current_bytes);
}

}  // namespace uot

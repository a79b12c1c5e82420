#ifndef UOT_UTIL_MEMORY_TRACKER_H_
#define UOT_UTIL_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/macros.h"

namespace uot {

namespace obs {
class TraceSession;
}  // namespace obs

/// Memory categories tracked during query execution.
///
/// The paper's memory-footprint comparison (Section VI, Table II) is between
/// join hash tables and materialized intermediate tables, so those are
/// tracked separately from base-table storage. Aggregation group state
/// (dense worker arrays and result partitions) has its own category, so it
/// is visible to budgets without changing the temp + hash-table peak; so
/// do a sort's row buffer and order array, under kOther.
enum class MemoryCategory : int {
  kBaseTable = 0,
  kTemporaryTable = 1,
  kHashTable = 2,
  kOther = 3,
  kAggregation = 4,
};

inline constexpr int kNumMemoryCategories = 5;

/// Stable lower_snake_case name of a category (metric/trace track names).
const char* MemoryCategoryName(MemoryCategory category);

/// Thread-safe allocation accounting with per-category peaks.
///
/// One tracker is attached to each query execution; operators report
/// allocations/releases and the benches read the peaks afterwards.
class MemoryTracker {
 public:
  MemoryTracker() = default;
  UOT_DISALLOW_COPY_AND_ASSIGN(MemoryTracker);

  void Allocate(MemoryCategory category, size_t bytes) {
    const int c = static_cast<int>(category);
    const int64_t now = current_[c].fetch_add(static_cast<int64_t>(bytes),
                                              std::memory_order_relaxed) +
                        static_cast<int64_t>(bytes);
    // Lock-free peak update; races only ever under-shoot transiently.
    int64_t peak = peak_[c].load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_[c].compare_exchange_weak(peak, now,
                                           std::memory_order_relaxed)) {
    }
    if (observers_active_.load(std::memory_order_relaxed)) {
      Observe(category, now);
    }
  }

  void Release(MemoryCategory category, size_t bytes) {
    const int64_t now =
        current_[static_cast<int>(category)].fetch_sub(
            static_cast<int64_t>(bytes), std::memory_order_relaxed) -
        static_cast<int64_t>(bytes);
    if (observers_active_.load(std::memory_order_relaxed)) {
      Observe(category, now);
    }
  }

  int64_t Current(MemoryCategory category) const {
    return current_[static_cast<int>(category)].load(
        std::memory_order_relaxed);
  }

  int64_t Peak(MemoryCategory category) const {
    return peak_[static_cast<int>(category)].load(std::memory_order_relaxed);
  }

  int64_t TotalCurrent() const {
    int64_t total = 0;
    for (const auto& c : current_) total += c.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (auto& c : current_) c.store(0, std::memory_order_relaxed);
    for (auto& p : peak_) p.store(0, std::memory_order_relaxed);
  }

  /// Rebases every category's peak to its current value, so peaks reflect
  /// only what happens after this call (e.g. one query execution).
  void ResetPeaks() {
    for (int c = 0; c < kNumMemoryCategories; ++c) {
      peak_[c].store(current_[c].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
  }

  /// Installs a trace sink (null to detach): every Allocate/Release then
  /// emits a per-category `memory_bytes` counter sample into `trace`.
  /// Attach/detach only while no thread is allocating — the executor
  /// installs the trace before workers start and detaches after they join.
  void AttachObservers(obs::TraceSession* trace);

  /// The attached trace session (null when detached). Instrumented
  /// allocators (e.g. JoinHashTable) use it for richer typed events.
  obs::TraceSession* trace() const { return trace_; }

 private:
  /// Out-of-line observer notification keeps obs types out of this hot
  /// inline header; called only when observers are attached.
  void Observe(MemoryCategory category, int64_t current_bytes);

  std::atomic<int64_t> current_[kNumMemoryCategories] = {};
  std::atomic<int64_t> peak_[kNumMemoryCategories] = {};
  std::atomic<bool> observers_active_{false};
  obs::TraceSession* trace_ = nullptr;
};

}  // namespace uot

#endif  // UOT_UTIL_MEMORY_TRACKER_H_

#ifndef UOT_OPERATORS_EXEC_CONTEXT_H_
#define UOT_OPERATORS_EXEC_CONTEXT_H_

#include <cstdint>
#include <string>

namespace uot {

namespace obs {
class TraceSession;
enum class JoinBatchStage : uint8_t;
}  // namespace obs

/// Knobs of the batched join kernels, wired through ExecConfig::join. The
/// kernels extract a batch of keys columnar, hash them all, software-
/// prefetch the home slots ahead of resolution (group prefetching, cf. the
/// paper's Table VI experiment), then resolve matches through selection
/// vectors. `batch_size = 1, prefetch_distance = 0` degenerates to
/// tuple-at-a-time probing — the in-engine A/B baseline.
struct JoinKernelConfig {
  /// Rows per probe/build batch (clamped to [1, 65536]).
  int batch_size = 256;
  /// How many keys ahead of the resolving key home-slot prefetches are
  /// issued. <= 0 disables prefetching (batching alone still applies).
  int prefetch_distance = 16;

  /// Batches smaller than this resolve without prefetching: the prefetch
  /// lead-in cannot hide latency when the whole batch fits in flight.
  static constexpr uint32_t kMinRowsForPrefetch = 16;

  uint32_t clamped_batch_size() const {
    if (batch_size < 1) return 1;
    if (batch_size > 65536) return 65536;
    return static_cast<uint32_t>(batch_size);
  }

  /// "batched(batch=256,prefetch=16)", for config summaries.
  std::string ToString() const {
    return "batched(batch=" + std::to_string(clamped_batch_size()) +
           ",prefetch=" + std::to_string(prefetch_distance) + ")";
  }
};

/// Join-kernel work one worker did for one operator: batches resolved
/// and home-slot prefetches issued (probe batches for a probe operator,
/// build batches for a build operator).
struct JoinKernelCounts {
  uint64_t batches = 0;
  uint64_t prefetches = 0;
};

/// Per-execution context handed to operators by the scheduler (or by a
/// standalone driver) before work-order generation: kernel knobs plus the
/// session's trace sink and join-kernel count slots, so work orders emit
/// per-batch trace spans and count their batches without locks. Both
/// pointers may be null (the default context traces and counts nothing
/// but runs the same kernels).
struct OperatorExecContext {
  JoinKernelConfig join;
  /// Workers that may run this execution's work orders; every
  /// WorkOrder::worker_id is below it.
  int num_workers = 1;
  obs::TraceSession* trace = nullptr;
  /// `num_workers` rows of `num_operators` slots, row `w` written only by
  /// worker `w`; the session sums the rows into OperatorStats after its
  /// workers retire the last work order.
  JoinKernelCounts* join_counts = nullptr;
  int num_operators = 0;

  /// Adds one work order's join-kernel counts for operator `op`.
  void CountJoinKernel(int worker_id, int op, uint64_t batches,
                       uint64_t prefetches) const {
    if (join_counts == nullptr) return;
    JoinKernelCounts& c = join_counts[worker_id * num_operators + op];
    c.batches += batches;
    c.prefetches += prefetches;
  }

  /// Start timestamp of a kernel stage: 0 when untraced, so untraced runs
  /// never read the clock.
  int64_t StageStart() const;
  /// Emits one kJoinBatchStage span for operator `op` on worker
  /// `worker_id`'s track when tracing is on.
  void TraceStage(int worker_id, int op, obs::JoinBatchStage stage,
                  int64_t start_ns, uint32_t rows) const;
};

}  // namespace uot

#endif  // UOT_OPERATORS_EXEC_CONTEXT_H_

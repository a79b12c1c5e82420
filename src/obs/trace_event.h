#ifndef UOT_OBS_TRACE_EVENT_H_
#define UOT_OBS_TRACE_EVENT_H_

#include <cstdint>

namespace uot {
namespace obs {

/// The engine's trace-event taxonomy. Every instrumented site emits one of
/// these typed events; names and categories are resolved at export time so
/// the hot-path record stays a fixed-size POD.
enum class TraceEventType : uint8_t {
  /// Whole-query span (coordinator). value = number of work orders.
  kQuery = 0,
  /// One work-order execution span (worker). arg0 = operator index,
  /// arg1 = worker id.
  kWorkOrder,
  /// A UoT transfer delivered accumulated blocks over a streaming edge.
  /// arg0 = edge index, value = blocks delivered.
  kBlockTransfer,
  /// Final flush of a streaming edge when its producer finished.
  /// arg0 = edge index.
  kEdgeFlush,
  /// A producer work order was deferred by the memory-budget policy.
  /// arg0 = operator index, value = tracked bytes at deferral.
  kBudgetDefer,
  /// A budget-deferred work order was released. arg0 = operator index,
  /// value = tracked bytes at release.
  kBudgetRelease,
  /// A join table sized its arrays. arg0 = layout (0 hash, 1 dense),
  /// arg1 = hash buckets or dense chain heads (saturated), value =
  /// allocated bytes.
  kHashTableReserve,
  /// An operator completed all work orders and flushed its output.
  /// arg0 = operator index.
  kOperatorFinish,
  /// Counter track: scheduler queue depth. arg0 = 0 for the work-order
  /// queue, 1 for the event queue; value = depth.
  kQueueDepth,
  /// Counter track: tracked memory per category. arg0 = MemoryCategory
  /// index, value = current bytes.
  kMemoryBytes,
  /// One stage of a batched join kernel over one batch (worker).
  /// arg0 = operator index, arg1 = JoinBatchStage, value = rows in batch.
  kJoinBatchStage,
  /// Counter track: the effective UoT of one streaming edge as resolved by
  /// the policy layer, in blocks per transfer. arg0 = edge index,
  /// value = blocks (0 stands in for whole-table; 0 blocks is otherwise
  /// invalid). Emitted at session start and whenever the value changes, so
  /// the track draws each edge's UoT trajectory.
  kUotEffective,
  /// The policy layer changed an edge's effective UoT mid-query.
  /// arg0 = edge index, arg1 = previous blocks (saturated to int32),
  /// value = new blocks; 0 stands in for whole-table on both sides.
  kUotAdapt,
  /// Why the policy layer landed on an edge's effective UoT: one instant
  /// per recorded decision (seed and every change). arg0 = edge index,
  /// arg1 = UotAdaptCause, value = new blocks (0 stands in for
  /// whole-table). Complements kUotAdapt, which carries the old/new pair
  /// but not the cause.
  kUotDecision,
};

/// Stages of the batched join kernels, recorded in kJoinBatchStage::arg1.
enum class JoinBatchStage : uint8_t {
  kExtract = 0,   // columnar key/residual extraction
  kProbe = 1,     // hash + prefetch + chain resolution
  kResidual = 2,  // residual-condition filtering of candidate matches
  kEmit = 3,      // output row assembly and append
  kInsert = 4,    // hash + prefetch + slot claim (build side)
  kPartition = 5, // hash + radix partition-id assignment (exchange)
  kScatter = 6,   // per-partition row scatter/append (exchange)
};

/// Stage name for kJoinBatchStage args ("extract", "probe", ...).
const char* JoinBatchStageName(int32_t stage);

/// Chrome trace_event phases the exporter knows how to render.
enum class TracePhase : uint8_t {
  kComplete,  // "ph":"X" — a span with a duration
  kInstant,   // "ph":"i" — a point event
  kCounter,   // "ph":"C" — a sampled counter track
};

/// Event name as it appears in the exported trace.
const char* TraceEventTypeName(TraceEventType type);

/// Event category ("cat" in the exported trace): exec, scheduler,
/// transfer, memory, or join.
const char* TraceEventTypeCategory(TraceEventType type);

/// A fixed-size trace record. Interpretation of arg0/arg1/value is per
/// TraceEventType (see the enum comments); unused fields stay at their
/// defaults. Timestamps are absolute monotonic nanoseconds (NowNanos);
/// the exporter rebases them to the session origin.
struct TraceEvent {
  int64_t ts_ns = 0;
  int64_t dur_ns = 0;
  int64_t value = 0;
  int32_t arg0 = -1;
  int32_t arg1 = -1;
  uint32_t tid = 0;
  TraceEventType type = TraceEventType::kQuery;
  TracePhase phase = TracePhase::kInstant;
};

}  // namespace obs
}  // namespace uot

#endif  // UOT_OBS_TRACE_EVENT_H_

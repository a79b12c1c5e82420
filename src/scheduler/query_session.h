#ifndef UOT_SCHEDULER_QUERY_SESSION_H_
#define UOT_SCHEDULER_QUERY_SESSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fused/fused_pipeline.h"
#include "plan/query_plan.h"
#include "scheduler/execution_stats.h"
#include "scheduler/scheduler.h"
#include "util/thread_safe_queue.h"

namespace uot {

class QuerySession;

/// Where a session's ready work orders go. Implemented by Engine
/// (exec/engine.h), whose shared queue feeds the persistent worker pool;
/// kept abstract so the scheduler layer does not depend on the exec layer.
class WorkOrderSink {
 public:
  virtual ~WorkOrderSink() = default;

  /// Enqueues a work order owned by `session`. High-priority work orders
  /// (pipeline consumers) overtake queued leaf work across every session
  /// sharing the sink. Returns false iff the sink has shut down and will
  /// never execute the work order.
  virtual bool SubmitWork(QuerySession* session,
                          std::unique_ptr<WorkOrder> work_order,
                          bool high_priority) = 0;

  /// Current depth of the shared work-order queue (observability only).
  virtual size_t WorkQueueDepth() const = 0;
};

/// The per-query half of the execution engine (paper Section III): all
/// scheduling state of one running query — operator/edge states, the
/// deferred-work-order queue, statistics, observability handles — plus the
/// coordinating event loop.
///
/// `Run()` executes the coordinator on the calling thread: it reacts to
/// execution events routed back from the worker pool through the session's
/// own event queue:
///  - a producer completed an output block -> accumulate it on each
///    outgoing streaming edge and transfer to the consumer once UoT blocks
///    are available (for the whole-table UoT, only when the producer
///    finished);
///  - an operator drained (its last outstanding work order finished) ->
///    when the operator is fully done, flush its partial output blocks and
///    unblock dependents;
///  - after every event, release budget-deferred work orders when allowed.
///
/// The worker that ran a work order does its bookkeeping itself (see
/// ExecuteWorkOrder): the coordinator never hears about a completion that
/// needs no decision. Work orders are executed by pool workers owned by
/// the Engine; many sessions run concurrently on one pool, each tagged
/// with its own `query_id` and (optionally) its own trace sink.
class QuerySession {
 public:
  /// `pool_workers` is the size of the worker pool behind `sink` (used for
  /// budget pacing and trace thread naming). `query_id` tags this
  /// session's stats and trace events.
  QuerySession(QueryPlan* plan, ExecConfig config, WorkOrderSink* sink,
               int pool_workers, uint64_t query_id);
  UOT_DISALLOW_COPY_AND_ASSIGN(QuerySession);

  /// Executes the plan to completion and returns the collected statistics.
  /// Runs the coordinator loop on the calling thread; must be called at
  /// most once.
  ExecutionStats Run();

  /// Executes `work_order` on behalf of this session and accounts it on
  /// the calling worker: drops the consumed transient blocks, files the
  /// timing record in the worker's own buffer and decrements the
  /// operator's outstanding count. Posts a completion event only when that
  /// decrement drains the operator, or while budget-deferred work orders
  /// wait for a slot. Called by pool worker threads (`worker_id` in
  /// [0, pool_workers)), concurrently with Run(). Returns whether the
  /// work order posted any event (a completed block or a completion), so
  /// the coordinator has something to decide.
  bool ExecuteWorkOrder(std::unique_ptr<WorkOrder> work_order, int worker_id);

  uint64_t query_id() const { return query_id_; }

 private:
  struct Event {
    enum class Kind { kBlockReady, kWorkOrderDone, kOperatorFlushed };
    Kind kind;
    int op = -1;
    Block* block = nullptr;
  };

  struct OpState {
    int blocking_deps = 0;
    bool is_consumer = false;  // fed by a streaming edge
    bool done_generating = false;
    bool finishing = false;
    bool finished = false;
    uint64_t generated = 0;
  };

  /// Work orders of one operator generated and not yet completed
  /// (budget-deferred ones included): raised by the coordinator before it
  /// dispatches, lowered by the worker that completes one. One cache line
  /// per operator so workers of different operators do not share one.
  struct alignas(64) Outstanding {
    std::atomic<uint64_t> count{0};
  };

  /// What one pool worker accounted for this session. Only that worker
  /// writes it; `retired` (the number of records filed) is its last store
  /// into the session per work order, so once the coordinator has seen
  /// every generated work order retired, no worker touches the session
  /// again and `records` is safe to read.
  struct alignas(64) WorkerSlot {
    std::vector<WorkOrderRecord> records;
    std::atomic<uint64_t> retired{0};
  };

  // Transfer state of one streaming edge. Its measured counters live in
  // the edge's `stats_.edges` entry, updated in place; there,
  // `final_uot_blocks` holds the last UoT the policy resolved (0 = never
  // consulted; UotPolicy::kWholeTable = materializing) until the edge
  // flushes.
  struct EdgeState {
    std::vector<Block*> buffer;
    // Payload bytes follow block rows x the producer schema's row width,
    // cached per edge at Run() start.
    uint64_t row_width = 0;
    uint64_t buffered_bytes = 0;  // payload bytes awaiting transfer
  };

  struct DeferredWorkOrder {
    int op;
    bool counted;  // deferred over budget (counted/traced), not just paced
    std::unique_ptr<WorkOrder> work_order;
  };

  /// Names the trace's operators and threads and builds the operator
  /// execution context: kernel knobs, the trace sink and the per-worker
  /// join-kernel count slots.
  void InitObservability();
  /// Emits the queue-depth counter tracks (traced runs only).
  void TraceQueueDepths();
  /// Consults the UoT policy layer for `edge_index` (plan annotation >
  /// config.uot_policy > FixedUotPolicy(config.uot)) and returns the
  /// blocks-per-transfer threshold. Records the effective-UoT counter
  /// track and counts/traces mid-query changes as adaptations.
  uint64_t ResolveEdgeUot(int edge_index);
  /// Builds the session's fused pipelines (PipelineMode::kFused only):
  /// plan annotations when present (each re-validated and required to be
  /// disjoint; invalid ones fall back to vectorized execution), otherwise
  /// PipelineFuser auto-detection. Marks interior edges fused in
  /// `stats_.edges`, which Run() fills first.
  void SetupFusedChains();
  /// The fused chain whose head is `op`, or nullptr.
  fused::FusedChain* FusedChainHeadedBy(int op);
  /// The chain head `op`'s work is folded into, or -1 when `op` is not a
  /// non-head member of a fused chain. Blocking edges into such members
  /// also gate the head: a fused work order probes every member's build.
  int FusedHeadOf(int op) const;
  void TryGenerate(int op);
  void Dispatch(int op, std::unique_ptr<WorkOrder> wo);
  /// Stamps the dispatch time and hands `wo` to the pool.
  void Submit(std::unique_ptr<WorkOrder> wo, bool high_priority);
  /// Re-dispatches budget-deferred work orders when allowed.
  void ReleaseDeferred();
  /// Work orders submitted to the pool and not yet completed.
  uint64_t Running() const;
  /// Work orders of `op` completed so far.
  uint64_t Completed(int op) const {
    return op_states_[static_cast<size_t>(op)].generated -
           outstanding_[static_cast<size_t>(op)].count.load();
  }
  void CheckOperatorDone(int op);
  void HandleBlockReady(int op, Block* block);
  void HandleOperatorFlushed(int op);
  void DeliverEdge(int edge_index, bool final_flush);
  bool AllFinished() const;
  /// The tail handshake: waits until every generated work order is
  /// retired by its worker, then builds `stats_.records` (by end time) and
  /// the per-operator work-order aggregates and join-kernel counts from
  /// the worker slots.
  void CollectWorkerRecords();

  QueryPlan* const plan_;
  const ExecConfig config_;
  WorkOrderSink* const sink_;
  const int pool_workers_;
  const uint64_t query_id_;

  ThreadSafeQueue<Event> event_queue_;

  std::vector<OpState> op_states_;
  std::vector<EdgeState> edge_states_;
  // Per consumer op: the producer output tables whose blocks may be
  // dropped after this op consumes them — one entry per incoming streaming
  // edge whose producer has no other consumer. A consumer with several
  // streaming inputs (e.g. sort-merge join) lists every such producer;
  // consumed blocks are resolved against each in turn.
  std::vector<std::vector<Table*>> droppable_sources_;
  // Fused pipelines of this run (PipelineMode::kFused only; empty
  // otherwise). A chain's interior operators generate no work orders of
  // their own — the head generates fused work orders spanning the whole
  // chain — but keep their normal finish lifecycle, driven by the empty
  // final flush of each interior edge.
  std::vector<std::unique_ptr<fused::FusedChain>> fused_chains_;
  std::vector<int> fused_chain_of_op_;  // per op: chain index or -1
  // Work orders deferred by the memory budget, FIFO.
  std::deque<DeferredWorkOrder> deferred_;
  // deferred_.size(), published for workers: while it is non-zero, every
  // completion posts an event so the coordinator can release deferred
  // work. The coordinator re-checks Running() after each publish, so a
  // completion racing with a deferral is seen by one side or the other.
  std::atomic<uint64_t> deferred_waiting_{0};
  // Work orders of the batch TryGenerate is dispatching that are counted
  // outstanding but not yet submitted or deferred (0 outside that loop).
  uint64_t undispatched_ = 0;
  std::unique_ptr<Outstanding[]> outstanding_;   // per operator
  std::unique_ptr<WorkerSlot[]> worker_slots_;   // per pool worker
  ExecutionStats stats_;

  // The resolved UoT policy chain: `uot_policy_` points at the config's
  // shared policy, or at `default_policy_` (wrapping the scalar
  // config.uot) when none is set. `edge_pin_` holds per-edge plan
  // annotations (0 = unpinned).
  std::unique_ptr<FixedUotPolicy> default_policy_;
  EdgeUotPolicy* uot_policy_ = nullptr;
  int64_t baseline_tracked_bytes_ = 0;  // tracked bytes at session start
  std::vector<uint64_t> edge_pin_;

  // The trace sink; null when ExecConfig::trace is unset.
  obs::TraceSession* trace_ = nullptr;
  // Join-kernel counts, one row of operators per pool worker: worker `w`
  // writes only row `w`, and CollectWorkerRecords sums the rows once every
  // work order is retired.
  std::vector<JoinKernelCounts> join_counts_;
  // Execution context bound to every operator before generation: kernel
  // knobs from the config, the trace sink and `join_counts_`.
  OperatorExecContext op_ctx_;
};

}  // namespace uot

#endif  // UOT_SCHEDULER_QUERY_SESSION_H_

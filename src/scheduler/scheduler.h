#ifndef UOT_SCHEDULER_SCHEDULER_H_
#define UOT_SCHEDULER_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "operators/exec_context.h"
#include "scheduler/uot_policy.h"

namespace uot {

namespace obs {
class TraceSession;
}  // namespace obs

/// How streaming pipelines between operators execute (the third axis of
/// the UoT spectrum, ROADMAP item 3):
///  - kVectorized: block-at-a-time — every streaming edge materializes
///    blocks that the UoT policy batches into transfers (the paper's
///    subject).
///  - kFused: select→probe(×N)→aggregate/project chains collapse into a
///    single work order per input morsel that walks rows through the whole
///    chain with zero intermediate block materialization (the far-low end
///    of the spectrum). Pipeline-breaking edges (build sides, exchange,
///    sort) stay vectorized; chains come from QueryPlan fused-pipeline
///    annotations or, when the plan carries none, from the PipelineFuser
///    pass at session start. Results are byte-identical to kVectorized.
enum class PipelineMode : uint8_t {
  kVectorized = 0,
  kFused = 1,
};

inline const char* PipelineModeName(PipelineMode mode) {
  return mode == PipelineMode::kFused ? "fused" : "vectorized";
}

/// Execution configuration for one query run.
///
/// Execution itself is split across two layers (paper Section III plus the
/// engine extension, see DESIGN.md):
///  - QuerySession (scheduler/query_session.h) holds the per-query
///    scheduling state and runs the coordinator loop;
///  - Engine (exec/engine.h) owns the persistent worker pool shared by all
///    concurrently running sessions.
/// QueryExecutor::Execute (exec/query_executor.h) wires both together for
/// the common single-query case.
struct ExecConfig {
  /// Number of worker threads executing work orders. For a standalone
  /// QueryExecutor::Execute run this is the size of the (one-query) engine
  /// pool; sessions submitted to a shared Engine use the engine's pool and
  /// ignore this field.
  int num_workers = 4;
  /// The session-default unit of transfer. When `uot_policy` is null the
  /// session wraps this value in a FixedUotPolicy, preserving the
  /// historical scalar semantics: the same UoT on every streaming edge.
  UotPolicy uot;
  /// Optional per-edge UoT policy (shared so one adaptive policy instance
  /// can serve many concurrent sessions). When set, it is consulted on
  /// every block-completion event of every streaming edge and overrides
  /// `uot`. Per-edge plan annotations (QueryPlan::AnnotateEdgeUot) pin an
  /// edge and take precedence over both.
  std::shared_ptr<EdgeUotPolicy> uot_policy;
  /// Drop intermediate blocks once their (single) consumer work order has
  /// executed. This makes temporaries transient, which is what gives the
  /// low-UoT strategy its near-zero intermediate footprint (Table II).
  /// Blocks feeding several consumers are kept.
  bool drop_consumed_blocks = true;
  /// Hash-join kernel batching knobs (batch size, prefetch distance). The
  /// session binds these to every operator — fused stages included —
  /// before work-order generation. Output is byte-identical for every
  /// setting, so `batch_size = 1, prefetch_distance = 0` against the
  /// defaults is a pure A/B of batching and prefetching.
  JoinKernelConfig join;
  /// Soft memory budget in bytes (0 = unlimited): while total tracked
  /// memory exceeds it, new work orders are deferred — except that one
  /// work order is always kept in flight so the query progresses. Another
  /// of the paper's Section III-C scheduling policies.
  int64_t memory_budget_bytes = 0;
  /// Optional trace sink (see src/obs/): when set, the session records
  /// typed span/instant/counter events (work orders, UoT transfers, edge
  /// flushes, budget deferrals, queue depths) for Perfetto export. Null
  /// (the default) keeps the hot path at a single pointer check. Give each
  /// concurrent session its own TraceSession so exported traces stay
  /// per-query.
  obs::TraceSession* trace = nullptr;
  /// Pipeline execution mode: vectorized block-at-a-time (default) or
  /// fused single-work-order chains. Fused falls back to vectorized
  /// per-pipeline wherever no fusable chain exists, so it is always safe
  /// to request.
  PipelineMode pipeline_mode = PipelineMode::kVectorized;

  /// One-line summary of the resolved execution configuration (worker
  /// count, effective UoT policy, join knobs, caps and budget) for logs,
  /// traces and test-failure output.
  std::string ToString() const;
};

}  // namespace uot

#endif  // UOT_SCHEDULER_SCHEDULER_H_

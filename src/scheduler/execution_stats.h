#ifndef UOT_SCHEDULER_EXECUTION_STATS_H_
#define UOT_SCHEDULER_EXECUTION_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "scheduler/uot_policy.h"
#include "util/memory_tracker.h"

namespace uot {

/// Timing record of one executed work order.
struct WorkOrderRecord {
  int op = -1;
  int worker = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// When the coordinator submitted the work order to the pool (for a
  /// budget-deferred one, when it was released); 0 when unknown.
  int64_t dispatch_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
  /// Time between submission and start: queued behind other work or
  /// waiting for a worker.
  int64_t queue_wait_ns() const {
    return dispatch_ns == 0 ? 0 : start_ns - dispatch_ns;
  }
};

/// Aggregated per-operator execution statistics.
struct OperatorStats {
  std::string name;
  uint64_t num_work_orders = 0;
  int64_t total_task_ns = 0;   // sum of work-order durations
  int64_t first_start_ns = 0;  // earliest work-order start
  int64_t last_end_ns = 0;     // latest work-order end
  int64_t finish_ns = 0;       // coordinator time in Operator::Finish()
  // Join-kernel batches resolved and home-slot prefetches issued: probe
  // batches for a probe operator (fused probe stages included), build
  // batches for a build operator; 0 for every other operator.
  uint64_t join_batches = 0;
  uint64_t join_prefetches = 0;

  double total_task_ms() const {
    return static_cast<double>(total_task_ns) / 1e6;
  }
  double avg_task_ms() const {
    return num_work_orders == 0
               ? 0.0
               : total_task_ms() / static_cast<double>(num_work_orders);
  }
  double finish_ms() const { return static_cast<double>(finish_ns) / 1e6; }
  /// Wall-clock span from the first work-order start to the last end.
  double span_ms() const {
    return static_cast<double>(last_end_ns - first_start_ns) / 1e6;
  }
};

/// Measured per-edge execution detail, collected by the session for every
/// streaming edge.
struct EdgeStats {
  int producer = -1;
  int consumer = -1;
  /// Transfers delivered (a transfer delivers up to UoT blocks).
  uint64_t transfers = 0;
  uint64_t blocks_produced = 0;
  uint64_t blocks_delivered = 0;
  /// Payload bytes delivered over the edge (block rows x schema row
  /// width — the transfer volume of the paper's Section V cost model,
  /// not allocator bytes).
  uint64_t bytes_delivered = 0;
  /// High-water mark of payload bytes buffered awaiting transfer: the
  /// edge's measured Section VI footprint.
  uint64_t max_buffered_bytes = 0;
  uint64_t max_buffered_blocks = 0;
  /// Effective UoT when the edge flushed (UotPolicy::kWholeTable for
  /// materializing edges).
  uint64_t final_uot_blocks = 0;
  /// True for exchange/repartition edges (QueryPlan::EdgeKind::kExchange).
  bool exchange = false;
  /// True when the edge was interior to a fused pipeline this run: rows
  /// walked the chain inside single work orders, so the zero transfer /
  /// zero block counts above are real, not an unexercised edge.
  bool fused = false;
};

/// Per-stage row counters of one fused pipeline (FusedChain::StageStats,
/// copied into the stats so profiles do not reference live operators).
struct FusedStageStats {
  int op = -1;
  std::string name;
  std::string kind;  // "select" | "probe" | "aggregate"
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
};

/// One fused pipeline executed by the session: its operator chain, how many
/// fused work orders ran, and the per-stage row flow.
struct FusedChainStats {
  std::vector<int> ops;
  uint64_t work_orders = 0;
  std::vector<FusedStageStats> stages;
};

/// Per-partition outcome of one exchange operator: how evenly the radix
/// partitioning spread the rows (the skew signal behind the
/// exchange.op.*.partition.* gauges).
struct ExchangeStats {
  int op = -1;
  std::string name;
  int radix_bits = 0;
  std::vector<uint64_t> partition_rows;
  std::vector<uint64_t> partition_blocks;

  uint64_t TotalRows() const {
    uint64_t total = 0;
    for (uint64_t r : partition_rows) total += r;
    return total;
  }
  /// max(partition rows) / mean(partition rows); 1.0 = perfectly even,
  /// num_partitions = everything in one partition. 0 when no rows flowed.
  double SkewRatio() const {
    if (partition_rows.empty()) return 0.0;
    const uint64_t total = TotalRows();
    if (total == 0) return 0.0;
    uint64_t max_rows = 0;
    for (uint64_t r : partition_rows) max_rows = std::max(max_rows, r);
    const double mean = static_cast<double>(total) /
                        static_cast<double>(partition_rows.size());
    return static_cast<double>(max_rows) / mean;
  }
};

/// One entry of the adaptive-decision log: the policy layer (re)resolved
/// an edge's effective UoT.
struct UotDecisionRecord {
  int64_t t_ns = 0;  // absolute monotonic, same clock as query_start_ns
  int edge = -1;
  uint64_t from_blocks = 0;  // 0 = first resolution (no prior value)
  uint64_t to_blocks = 0;    // UotPolicy::kWholeTable = materialize
  UotAdaptCause cause = UotAdaptCause::kNone;
};

/// One memory-budget deferral or release, with the tracked bytes that
/// motivated it.
struct BudgetEventRecord {
  int64_t t_ns = 0;
  int op = -1;
  bool release = false;  // false = work order deferred, true = released
  int64_t tracked_bytes = 0;
};

/// Everything the benches need from one query execution: per-work-order
/// timings, per-operator aggregates, per-edge transfer counts and memory
/// peaks (paper Figs. 3/5/6/7, Table II). This is the one per-query
/// telemetry record: QueryProfile, its one rendering, is built from it,
/// and the trace is the only other per-query surface.
struct ExecutionStats {
  /// Engine-assigned id of the session that produced these stats (0 for
  /// runs outside an engine). Tags trace events of concurrent queries.
  uint64_t query_id = 0;
  /// Time spent blocked in engine admission control before the session
  /// started (0 when admitted immediately).
  int64_t admission_wait_ns = 0;
  int64_t query_start_ns = 0;
  int64_t query_end_ns = 0;
  /// Every executed work order, by end time.
  std::vector<WorkOrderRecord> records;
  std::vector<OperatorStats> operators;
  /// Coordinator time spent deciding: the first generation pass plus the
  /// handling of every event, excluding the waits for the next event.
  int64_t coordinator_busy_ns = 0;
  /// Events the coordinator handled: completed blocks, operator drains
  /// and operator flushes.
  uint64_t coordinator_events = 0;
  /// The share of coordinator_events that workers posted on completing a
  /// work order: one per operator drain, plus one per completion while
  /// budget-deferred work waited.
  uint64_t completion_events = 0;
  /// Measured per-edge detail (transfers, payload bytes, buffered
  /// high-water marks), one entry per streaming edge.
  std::vector<EdgeStats> edges;
  /// Per-partition row/block counts of every exchange operator in the
  /// plan, in operator order; empty when the plan has no exchanges.
  std::vector<ExchangeStats> exchanges;
  /// Every fused pipeline the session executed (empty under
  /// PipelineMode::kVectorized or when no chain was fusable).
  std::vector<FusedChainStats> fused_chains;
  /// Every effective-UoT resolution in time order (the per-edge UoT
  /// timeline): one seed decision per non-fused streaming edge, plus one
  /// per mid-query change.
  std::vector<UotDecisionRecord> uot_decisions;
  /// Every budget deferral/release in time order.
  std::vector<BudgetEventRecord> budget_events;
  /// Peak memory during execution, per category.
  int64_t peak_bytes[kNumMemoryCategories] = {};
  /// Producer work orders deferred because tracked memory exceeded the
  /// budget at dispatch time (published as the scheduler.budget.deferrals
  /// metric).
  uint64_t budget_deferrals = 0;
  /// Denied release attempts while over budget with deferred work waiting:
  /// the duration-like measure of budget pressure (each coordinator event
  /// after which no deferred work could be re-admitted counts once).
  uint64_t budget_stalls = 0;
  /// Mid-query effective-UoT changes across all streaming edges (0 for
  /// fixed policies).
  uint64_t uot_adaptations = 0;
  /// ExecConfig::ToString() of the session that ran the query, so failure
  /// output and logs show which policy actually executed.
  std::string config_summary;

  double QueryMillis() const {
    return static_cast<double>(query_end_ns - query_start_ns) / 1e6;
  }

  int64_t PeakHashTableBytes() const {
    return peak_bytes[static_cast<int>(MemoryCategory::kHashTable)];
  }
  int64_t PeakTemporaryBytes() const {
    return peak_bytes[static_cast<int>(MemoryCategory::kTemporaryTable)];
  }

  /// Average degree of parallelism of operator `op` over the interval in
  /// which any of its work orders ran (integral of #running / span).
  double AverageDop(int op) const;
};

}  // namespace uot

#endif  // UOT_SCHEDULER_EXECUTION_STATS_H_

#ifndef UOT_OBS_QUERY_PROFILE_H_
#define UOT_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "scheduler/execution_stats.h"
#include "util/status.h"

namespace uot {

class QueryPlan;

namespace obs {

/// The structured post-run record of one query: everything ExecutionStats
/// measured, joined with what the Section V/VI cost model predicted
/// (QueryPlan::EdgePrediction), rendered as an EXPLAIN-ANALYZE-style
/// annotated plan (ToString) and as validated JSON (ToJson +
/// ParseQueryProfileJson). This is the observe half of the
/// observe-model-act loop: the residuals it computes are the ground truth
/// that tells us whether the model that chose each edge's UoT was right.
class QueryProfile {
 public:
  /// One streaming edge: the measured EdgeStats next to the model's
  /// expectation, and the residual (actual minus predicted) between them.
  /// Exchange edges get an "xchg" tag and fused edges a "fused" tag, each
  /// with a "kind" key in JSON that is absent for pipeline edges.
  struct Edge : EdgeStats {
    int edge = -1;
    std::string producer_name;
    std::string consumer_name;

    // Predicted (QueryPlan::EdgePrediction); valid iff has_prediction.
    bool has_prediction = false;
    uint64_t predicted_uot_blocks = 0;
    uint64_t est_rows = 0;
    uint64_t est_bytes = 0;
    uint64_t est_blocks = 0;
    uint64_t predicted_transfers = 0;
    uint64_t predicted_footprint_bytes = 0;
    double predicted_cost_ns = 0.0;
    std::string reason;

    // Residuals, actual minus predicted; 0 when has_prediction is false.
    int64_t residual_transfers = 0;
    int64_t residual_bytes = 0;
    int64_t residual_footprint_bytes = 0;

    /// max(|residual_transfers| / predicted_transfers,
    ///     |residual_bytes| / est_bytes) — the edge's worst relative
    /// calibration error (0 without a prediction; denominator floors at
    /// 1 so empty estimates do not divide by zero).
    double WorstRelativeError() const;
  };

  /// One operator: the measured OperatorStats plus a latency digest of
  /// its work orders (p50/p95/p99 over the default latency grid).
  struct OperatorEntry : OperatorStats {
    int op = -1;
    double avg_dop = 0.0;
    HistogramSnapshot latency;
  };

  struct Options {
    /// Label in reports and JSON ("q3"); empty = "query".
    std::string query_name;
  };

  /// Assembles a profile from a finished run. `plan` supplies operator
  /// wiring and model predictions; pass nullptr when the plan is gone
  /// (measured-only profile, no residuals).
  static QueryProfile FromRun(const QueryPlan* plan,
                              const ExecutionStats& stats,
                              Options options = {});

  const std::string& query_name() const { return query_name_; }
  const ExecutionStats& stats() const { return stats_; }
  const std::vector<OperatorEntry>& operators() const { return operators_; }
  const std::vector<Edge>& edges() const { return edges_; }
  /// Latency digest over every work order of the query.
  const HistogramSnapshot& work_order_latency() const {
    return work_order_latency_;
  }
  /// Digest of dispatch-to-start waits (WorkOrderRecord::queue_wait_ns)
  /// over the work orders that carry a dispatch time.
  const HistogramSnapshot& queue_wait() const { return queue_wait_; }

  /// The EXPLAIN-ANALYZE-style annotated plan, the one text rendering of
  /// a run: the resolved ExecConfig, the coordinator/queue-wait split,
  /// operators with work-order counts/time/DoP/latency percentiles (and
  /// join-kernel batches and prefetches for join operators), edges
  /// with measured vs predicted transfers/bytes/footprint and residuals,
  /// memory peaks, budget events, and the UoT decision log.
  std::string ToString() const;

  /// The model-calibration report: only edges with predictions, ranked by
  /// WorstRelativeError, with predicted vs actual columns. Empty string
  /// when no edge carries a prediction.
  std::string CalibrationReport() const;

  /// Structured JSON (parse with JsonValue::Parse, validate with
  /// ParseQueryProfileJson). UoT block values are encoded signed: -1
  /// stands for whole-table, 0 for "none/unresolved".
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

 private:
  std::string query_name_;
  ExecutionStats stats_;
  std::vector<OperatorEntry> operators_;
  std::vector<Edge> edges_;
  HistogramSnapshot work_order_latency_;
  HistogramSnapshot queue_wait_;
};

/// What a structural validation of a profile JSON document found; the
/// profile analogue of ChromeTraceSummary.
struct QueryProfileSummary {
  std::string query_name;
  uint64_t query_id = 0;
  size_t num_operators = 0;
  size_t num_edges = 0;
  size_t num_predicted_edges = 0;  // edges carrying prediction+residuals
  size_t num_exchange_edges = 0;   // edges tagged "kind": "exchange"
  size_t num_fused_edges = 0;      // edges tagged "kind": "fused"
  size_t num_exchanges = 0;        // entries of the "exchanges" section
  size_t num_fused_chains = 0;     // entries of the "fused_pipelines" section
  size_t num_uot_decisions = 0;
  size_t num_budget_events = 0;
  uint64_t coordinator_events = 0;  // 0 when the optional keys are absent
  uint64_t completion_events = 0;
};

/// Validates that `json` is a well-formed profile document — top-level
/// object with "query"/"operators"/"edges"/"memory"/"budget"/"uot"
/// sections of the right shapes — and fills `summary`. Dependency-free
/// (json_lite), same role the trace validator plays for trace exports.
Status ParseQueryProfileJson(std::string_view json,
                             QueryProfileSummary* summary);

}  // namespace obs
}  // namespace uot

#endif  // UOT_OBS_QUERY_PROFILE_H_

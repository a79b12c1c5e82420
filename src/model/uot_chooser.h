#ifndef UOT_MODEL_UOT_CHOOSER_H_
#define UOT_MODEL_UOT_CHOOSER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/cost_model.h"
#include "plan/query_plan.h"
#include "scheduler/uot_policy.h"

namespace uot {

/// Cardinality estimate for one streaming edge: how much output its
/// producer is expected to emit. Estimates come from the analysis layer
/// (tpch/tpch_analysis.h selectivity/projectivity products) or from a
/// profiled prior run (EstimatesFromExecutedPlan).
struct EdgeEstimate {
  uint64_t rows = 0;
  double row_bytes = 0.0;

  double bytes() const { return static_cast<double>(rows) * row_bytes; }
};

/// The chooser's verdict for one edge.
struct UotChoice {
  /// The chosen point on the UoT spectrum.
  UotPolicy uot = UotPolicy();
  /// Transfer granule of the choice, bytes (whole output for kWholeTable).
  double uot_bytes = 0.0;
  /// Modeled extra cost (ns) of the chosen UoT vs. of materializing.
  double chosen_cost_ns = 0.0;
  double materializing_cost_ns = 0.0;
  /// Section VI footprint of materializing this edge (the sigma bytes the
  /// whole-table strategy holds live).
  double materialized_bytes = 0.0;
  /// Why this UoT won: "cost-model" (pure Section V argmin) or
  /// "memory-cap" (the Section VI footprint hit the budget cap and forced
  /// a smaller granule than the cost argmin).
  const char* reason = "cost-model";

  /// The inputs and derived expectations behind the choice, kept so
  /// profiles can hold the model accountable (residual accounting):
  /// the estimate the model saw ...
  uint64_t est_rows = 0;
  uint64_t est_bytes = 0;
  uint64_t est_blocks = 0;
  /// ... and what it implies at the chosen UoT: number of transfers and
  /// the Section VI bytes the edge is expected to hold live (the granule
  /// for finite UoT, the whole intermediate when materializing).
  uint64_t predicted_transfers = 0;
  uint64_t predicted_footprint_bytes = 0;

  std::string ToString() const;
};

/// The chooser's verdict on how many radix bits a hash join should use
/// (0 = unpartitioned): Section V's repartition cost against the probe
/// cache-miss savings of L3-resident sub-tables (Section VI footprint
/// reasoning applied to the hash table instead of the intermediate).
struct RadixChoice {
  int radix_bits = 0;
  /// Modeled whole-table and per-partition sub-table sizes, bytes.
  double table_bytes = 0.0;
  double sub_table_bytes = 0.0;
  /// Extra cost of repartitioning both join inputs, ns.
  double repartition_cost_ns = 0.0;
  /// Probe-side cache-miss cost the partitioning saves, ns.
  double saved_cost_ns = 0.0;
  /// "fits-l3" (table already cache-resident -> 0), "small-build"
  /// (repartition costs more than it saves -> 0), or "partition".
  const char* reason = "fits-l3";

  std::string ToString() const;
};

/// The chooser's verdict on one fusable pipeline: fused tuple-at-a-time
/// execution against the best vectorized per-edge UoT choices over the
/// chain's interior edges.
struct FusedChoice {
  bool fuse = false;
  /// Modeled extra cost (ns) of walking the chain in row groups
  /// (CostModel::FusedChainCost).
  double fused_cost_ns = 0.0;
  /// Sum of the interior edges' best vectorized costs
  /// (UotChoice::chosen_cost_ns of each edge's ChooseEdge verdict).
  double vectorized_cost_ns = 0.0;
  /// "fused-cheaper" or "vectorized-cheaper".
  const char* reason = "vectorized-cheaper";

  std::string ToString() const;
};

/// Static per-edge UoT selection at plan bind time (tentpole part 3): for
/// every streaming edge, evaluates the Section V cost model over candidate
/// UoT values (1, 2, 4, ... blocks, and whole-table) using the edge's
/// cardinality estimate, caps the candidates with the Section VI memory
/// footprint against the shared budget, and picks the cheapest. The
/// choices can be applied as plan annotations (AnnotatePlan) or used to
/// seed an AdaptiveUotPolicy.
class CostModelUotChooser {
 public:
  struct Options {
    CostModelParams cost_params;
    /// Worker threads the query will run with (the model's T).
    int threads = 4;
    /// Memory available to the query's intermediates (0 = unconstrained).
    /// Pass the headroom above the structural footprint (base tables,
    /// hash tables), not the engine's raw budget: the chooser caps edge
    /// granules against this number, and bytes it cannot reclaim would
    /// only inflate every cap.
    int64_t memory_budget_bytes = 0;
  };

  /// Fraction of the budget one edge's live transfer granule may occupy;
  /// whole-table is only eligible when the edge's full materialized
  /// footprint fits under this cap.
  static constexpr double kBudgetCapFraction = 0.25;
  /// Largest finite candidate, in blocks.
  static constexpr uint64_t kMaxBlocks = 64;

  CostModelUotChooser() : CostModelUotChooser(Options{}) {}
  explicit CostModelUotChooser(Options options);

  /// The cost-model choice for one edge whose producer emits `estimate`
  /// into blocks of `block_bytes`. `exchange_edge` marks an exchange/
  /// repartition edge: whole-table is excluded there — materializing an
  /// exchange input recreates the serial repartition barrier the exchange
  /// exists to avoid (the partition consumers would sit idle until the
  /// producer finished), so only finite UoT values compete.
  UotChoice ChooseEdge(const EdgeEstimate& estimate, size_t block_bytes,
                       bool exchange_edge = false) const;

  /// Radix bits for a hash join whose build side emits `build_estimate`
  /// and whose probe side emits `probe_estimate`: 0 when the whole table
  /// fits L3 or when the repartition work (both inputs rewritten once)
  /// exceeds the modeled probe-miss savings; otherwise the smallest radix
  /// in [1, max_radix_bits] whose sub-tables fit L3. `slot_bytes` is the
  /// hash table's per-entry slot cost (key words + payload + tag).
  RadixChoice ChooseRadixBits(const EdgeEstimate& build_estimate,
                              const EdgeEstimate& probe_estimate,
                              size_t slot_bytes, double load_factor = 0.75,
                              int max_radix_bits = 6) const;

  /// Whether chain `chain_ops` (a fusable pipeline of `plan`, in pipeline
  /// order — e.g. one of PipelineFuser::DetectFusablePipelines) should
  /// execute fused: the tuple-at-a-time cost of crossing each interior
  /// edge in `row_group_rows`-row granules against the sum of the edges'
  /// best vectorized choices. `estimates[i]` pairs with
  /// plan.streaming_edges()[i], exactly as in ChoosePlan.
  FusedChoice ChooseFusedChain(const QueryPlan& plan,
                               const std::vector<int>& chain_ops,
                               const std::vector<EdgeEstimate>& estimates,
                               uint64_t row_group_rows = 1024) const;

  /// Choices for every streaming edge of `plan` (estimates[i] pairs with
  /// plan.streaming_edges()[i]; block sizes come from the producers'
  /// output tables).
  std::vector<UotChoice> ChoosePlan(
      const QueryPlan& plan, const std::vector<EdgeEstimate>& estimates) const;

  /// Applies `choices` (from ChoosePlan) as per-edge plan annotations,
  /// pinning every edge's UoT. Also records the predictions
  /// (AnnotatePredictions) so profiled runs get residuals for free.
  static void AnnotatePlan(QueryPlan* plan,
                           const std::vector<UotChoice>& choices);

  /// Records only the model's expectations (QueryPlan::EdgePrediction)
  /// without pinning edge UoTs. Use when the choices seed an adaptive
  /// policy instead of pinning the plan: the profile still compares the
  /// model's predictions against what the adaptive run measured.
  static void AnnotatePredictions(QueryPlan* plan,
                                  const std::vector<UotChoice>& choices);

  /// Oracle estimates measured from an already-executed plan's intermediate
  /// tables — per-edge actual output cardinalities, for benchmarking the
  /// chooser against a profiled run of the same query shape. The profile
  /// run must execute with ExecConfig::drop_consumed_blocks = false, or the
  /// consumed intermediates measure as empty.
  static std::vector<EdgeEstimate> EstimatesFromExecutedPlan(
      const QueryPlan& plan);

  const Options& options() const { return options_; }
  const CostModel& cost_model() const { return model_; }

 private:
  Options options_;
  CostModel model_;
};

}  // namespace uot

#endif  // UOT_MODEL_UOT_CHOOSER_H_

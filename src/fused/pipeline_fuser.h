#ifndef UOT_FUSED_PIPELINE_FUSER_H_
#define UOT_FUSED_PIPELINE_FUSER_H_

#include <vector>

#include "plan/query_plan.h"

namespace uot {
namespace fused {

/// Detects the maximal fusable pipelines of a plan: linear
/// select→probe(×N)→aggregate/project chains whose interior streaming
/// edges can be collapsed into single fused work orders.
///
/// A streaming edge producer → consumer is fusable when:
///  - it is a plain pipeline edge into the consumer's only streaming input
///    (exchange/repartition edges are pipeline breakers);
///  - the producer is a Select or ProbeHash operator whose only streaming
///    consumer is this edge (its output is read exactly once, so skipping
///    its materialization loses nothing);
///  - the producer's output is not the plan's result table (fused interior
///    outputs are never materialized);
///  - the consumer is a Select, ProbeHash or Aggregate operator; and
///  - every ProbeHash endpoint probes an unpartitioned build
///    (radix-partitioned probes need partition-tagged exchange blocks —
///    another pipeline breaker).
///
/// Build sides, exchanges and sorts therefore always stay on the
/// vectorized path. The returned chains are disjoint, in pipeline order,
/// and at least two operators long.
class PipelineFuser {
 public:
  /// Maximal fusable chains of `plan`, each a producer→consumer operator
  /// index sequence.
  static std::vector<std::vector<int>> DetectFusablePipelines(
      const QueryPlan& plan);

  /// True when `ops` is a valid fusable chain of `plan` (every
  /// consecutive pair is a fusable edge). Used to re-validate
  /// QueryPlan::fused_pipelines() annotations before the session fuses
  /// them; invalid chains fall back to vectorized execution.
  static bool IsFusableChain(const QueryPlan& plan,
                             const std::vector<int>& ops);

 private:
  static bool IsFusableEdge(const QueryPlan& plan,
                            const QueryPlan::StreamingEdge& edge);
};

}  // namespace fused
}  // namespace uot

#endif  // UOT_FUSED_PIPELINE_FUSER_H_

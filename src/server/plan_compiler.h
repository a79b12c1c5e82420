#ifndef UOT_SERVER_PLAN_COMPILER_H_
#define UOT_SERVER_PLAN_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "model/uot_chooser.h"
#include "plan/plan_builder.h"
#include "server/catalog.h"
#include "server/sql_parser.h"
#include "util/status.h"

namespace uot {
namespace server {

/// Compiles a parsed SelectStatement into a physical QueryPlan through
/// PlanBuilder, resolving columns against the catalog and binding literal
/// (or EXECUTE-parameter) values to the compared columns' types.
///
/// Plan shape: every stage carries only the columns the statement reads
/// above it, and WHERE conjuncts are evaluated where their table is read,
/// never projected.
///  - no join, aggregated: one Aggregate over the base table with WHERE as
///    its fused predicate (a single integral group key can take the dense
///    layout);
///  - no join, bare columns: one scan Select that filters and projects the
///    select list;
///  - join: each side is read by a scan Select projecting the join key and
///    the columns used above the join, or straight from its base table
///    when it has no WHERE and the join is not partitioned. The build
///    payload and the probe output hold only those columns (COUNT(*)
///    alone keeps the build key). An Aggregate, or nothing, follows.
///  - a projection-only Select last, only when the select list's order
///    differs from the operator's output order.
/// Compile rejects, with InvalidArgument, SUM/AVG/MIN/MAX over a
/// non-numeric column and join or group keys the hash kernels cannot key
/// (IsKeyableType).
class PlanCompiler {
 public:
  PlanCompiler(const Catalog* catalog, PlanBuilderConfig config)
      : catalog_(catalog), config_(config) {}

  /// Builds the plan. `params` supplies values for `?` placeholders in
  /// statement order; `radix_bits` partitions the join (0 = shared table,
  /// ignored without a join). On error `*out` is untouched.
  Status Compile(const SelectStatement& stmt,
                 const std::vector<SqlValue>& params, int radix_bits,
                 std::unique_ptr<QueryPlan>* out) const;

  /// Estimates of the join's build (join-table) and probe (from-table)
  /// inputs, for CostModelUotChooser::ChooseRadixBits: base-table row
  /// counts, and the row widths the compiled plan carries (the build
  /// payload; the probe scan's key and carried columns). Fails unless the
  /// statement has a join, or on the errors Compile reports for its
  /// columns.
  Status JoinEstimates(const SelectStatement& stmt, EdgeEstimate* build,
                       EdgeEstimate* probe) const;

  const PlanBuilderConfig& config() const { return config_; }

 private:
  const Catalog* const catalog_;
  const PlanBuilderConfig config_;
};

}  // namespace server
}  // namespace uot

#endif  // UOT_SERVER_PLAN_COMPILER_H_

#ifndef UOT_BASELINE_MATERIALIZING_ENGINE_H_
#define UOT_BASELINE_MATERIALIZING_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "operators/aggregate_operator.h"
#include "operators/probe_hash_operator.h"
#include "operators/sort_operator.h"
#include "plan/query_plan.h"
#include "storage/table.h"

namespace uot {

/// An operator-at-a-time, fully materializing, single-threaded engine — the
/// MonetDB-style baseline of the paper's Fig. 11 (see DESIGN.md
/// substitution 3).
///
/// Every operator consumes its *entire* input and materializes its entire
/// output before the next operator starts; there is no scheduler, no
/// streaming, and no intra-operator parallelism. Outputs are written into
/// whole-table-sized blocks, mimicking full-column materialization.
///
/// The standalone operator helpers below also serve as sequential reference
/// implementations for the property tests.
class MaterializingEngine {
 public:
  explicit MaterializingEngine(StorageManager* storage)
      : storage_(storage) {}
  UOT_DISALLOW_COPY_AND_ASSIGN(MaterializingEngine);

  /// sigma+project: returns a new fully materialized table.
  std::unique_ptr<Table> Select(const Table& input, const Predicate& pred,
                                const Projection& proj);

  struct JoinSpec {
    std::vector<int> build_keys;
    std::vector<int> build_payload;
    std::vector<int> probe_keys;
    std::vector<int> probe_out;
    JoinKind kind = JoinKind::kInner;
    std::vector<ResidualCondition> residuals;
    double load_factor = 0.75;
    /// Batching knobs bound to the build and probe operators; tests A/B
    /// batch 1 without prefetch against batched settings through this.
    JoinKernelConfig join;
  };
  std::unique_ptr<Table> HashJoin(const Table& probe, const Table& build,
                                  const JoinSpec& spec);

  std::unique_ptr<Table> GroupAggregate(const Table& input,
                                        std::vector<int> group_cols,
                                        std::vector<AggSpec> aggs,
                                        std::unique_ptr<Predicate> pred);

  std::unique_ptr<Table> Sort(const Table& input, std::vector<SortKey> keys,
                              uint64_t limit = 0);

  /// Executes a full query plan in baseline mode: single worker, one
  /// operator at a time (whole-table UoT). Returns wall-clock milliseconds;
  /// the result stays in `plan->result_table()`.
  static double ExecutePlan(QueryPlan* plan);

  /// Drives one operator (already fed) to completion on this thread.
  static void Drive(Operator* op);

 private:
  /// Output-table block size: one whole-table block when possible.
  std::unique_ptr<Table> MakeOutput(const std::string& name, Schema schema,
                                    uint64_t bytes_hint);

  StorageManager* const storage_;
};

}  // namespace uot

#endif  // UOT_BASELINE_MATERIALIZING_ENGINE_H_

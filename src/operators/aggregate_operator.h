#ifndef UOT_OPERATORS_AGGREGATE_OPERATOR_H_
#define UOT_OPERATORS_AGGREGATE_OPERATOR_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/predicate.h"
#include "expr/projection.h"
#include "operators/operator.h"
#include "storage/insert_destination.h"

namespace uot {

enum class AggFn : uint8_t { kCount, kSum, kMin, kMax, kAvg };

/// One aggregate computation: a function over an input expression
/// (`expr == nullptr` means COUNT(*)).
struct AggSpec {
  AggFn fn;
  std::unique_ptr<Scalar> expr;
  std::string name;
};

/// Running state of one aggregate within one group.
///
/// Sums use Kahan compensation so the result is (nearly) independent of the
/// order in which work orders' partials merge — scheduling must not change
/// query results beyond the last representable bit.
struct AggState {
  double sum = 0.0;
  double comp = 0.0;  // Kahan compensation term
  int64_t count = 0;
  double min = 1e308;
  double max = -1e308;

  void Add(double v) {
    const double y = v - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }

  void Merge(const AggState& other) {
    Add(other.sum);
    Add(-other.comp);
    count += other.count;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }
};

/// Hash-based (optionally grouped) aggregation with an optional fused
/// filter predicate, so plans like TPC-H Q1/Q6 are a single leaf operator
/// on the base table — matching the paper's Fig. 3 observation that those
/// queries are dominated by one leaf operator.
///
/// Each work order aggregates one input block into a thread-local partial
/// table and merges it into the shared result under a mutex; Finish()
/// materializes the final groups into the output destination. A fused
/// pipeline runs the same accumulation (Accumulate) into one partial per
/// fused work order.
class AggregateOperator final : public Operator {
 public:
  /// `group_cols` (0-3 columns, integral or CHAR<=8) may be empty for
  /// scalar aggregation. `input_schema` is the schema of the streamed or
  /// attached input.
  AggregateOperator(std::string name, const Schema& input_schema,
                    std::vector<int> group_cols, std::vector<AggSpec> aggs,
                    std::unique_ptr<Predicate> predicate,
                    InsertDestination* destination);

  void AttachBaseTable(const Table* table) { input_.AttachTable(table); }

  void ReceiveInputBlocks(int input_index,
                          const std::vector<Block*>& blocks) override;
  void InputDone(int input_index) override;
  bool GenerateWorkOrders(
      std::vector<std::unique_ptr<WorkOrder>>* out) override;
  void Finish() override;

  /// Output schema: group columns (original types) then one column per
  /// aggregate (COUNT -> INT64, others -> DOUBLE).
  static Schema OutputSchema(const Schema& input_schema,
                             const std::vector<int>& group_cols,
                             const std::vector<AggSpec>& aggs);

  /// Composite group key: up to 3 widened column words.
  using GroupKey = std::array<uint64_t, 3>;
  struct KeyHash {
    size_t operator()(const GroupKey& k) const {
      uint64_t h = k[0] * 0x9E3779B97F4A7C15ULL + k[1];
      h ^= h >> 29;
      h = (h + k[2]) * 0xBF58476D1CE4E5B9ULL;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  using GroupMap = std::unordered_map<GroupKey, std::vector<AggState>, KeyHash>;

  /// The aggregation kernel: removes the rows of `sel` (sorted row indices
  /// of `block`) that fail the optional predicate, then accumulates the
  /// survivors into `partial`.
  void Accumulate(const Block& block, std::vector<uint32_t>* sel,
                  GroupMap* partial) const;

  /// Merges a work order's partial result (called from worker threads).
  void MergePartial(GroupMap&& partial);

 private:
  const Schema input_schema_;
  const std::vector<int> group_cols_;
  const std::vector<AggSpec> aggs_;
  const std::unique_ptr<Predicate> predicate_;
  InsertDestination* const destination_;

  StreamingInput input_;

  std::mutex merge_mutex_;
  GroupMap groups_;
};

/// Aggregates one input block into a partial group table.
class AggregateWorkOrder final : public WorkOrder {
 public:
  AggregateWorkOrder(const Block* block, AggregateOperator* op)
      : block_(block), op_(op) {}

  void Execute() override;

 private:
  const Block* const block_;
  AggregateOperator* const op_;
};

}  // namespace uot

#endif  // UOT_OPERATORS_AGGREGATE_OPERATOR_H_

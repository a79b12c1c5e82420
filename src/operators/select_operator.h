#ifndef UOT_OPERATORS_SELECT_OPERATOR_H_
#define UOT_OPERATORS_SELECT_OPERATOR_H_

#include <memory>

#include "expr/predicate.h"
#include "expr/projection.h"
#include "operators/build_hash_operator.h"
#include "operators/operator.h"
#include "storage/insert_destination.h"

namespace uot {

/// A LIP-filter attachment: rows whose `key_col` value misses `source`'s
/// Bloom filter are pruned during the scan (paper Section VI-C / LIP [42]).
struct LipAttachment {
  const BuildHashOperator* source;
  int key_col;
};

/// Filter + project, one work order per input block (paper Section III).
/// The canonical producer of the paper's select -> probe pipeline when
/// attached to a base table; with a streamed input it acts as a filter over
/// a join intermediate (e.g. TPC-H Q19's cross-table OR predicate). A fused
/// pipeline runs the same filter (FilterRows) over its row groups.
class SelectOperator final : public Operator {
 public:
  SelectOperator(std::string name, std::unique_ptr<Predicate> predicate,
                 std::unique_ptr<Projection> projection,
                 InsertDestination* destination);

  /// Input is a fully materialized table (base-table scan).
  void AttachBaseTable(const Table* table) { input_.AttachTable(table); }

  /// Prunes scanned rows through `source`'s LIP Bloom filter on `key_col`
  /// (an input-schema column index). The plan must add a blocking edge
  /// source -> this so the filter is complete before scanning starts, and
  /// `source` must have LIP enabled.
  void AddLipFilter(const BuildHashOperator* source, int key_col) {
    // Composite-key filters would hash differently on each side.
    UOT_CHECK(source->key_cols().size() == 1);
    lip_.push_back(LipAttachment{source, key_col});
  }

  void ReceiveInputBlocks(int input_index,
                          const std::vector<Block*>& blocks) override;
  void InputDone(int input_index) override;
  bool GenerateWorkOrders(
      std::vector<std::unique_ptr<WorkOrder>>* out) override;
  void Finish() override;

  /// The filter kernel: removes the rows of `sel` (sorted row indices of
  /// `block`) that fail the predicate or miss an attached LIP filter,
  /// keeping order.
  void FilterRows(const Block& block, std::vector<uint32_t>* sel) const;

  const Projection& projection() const { return *projection_; }
  InsertDestination* destination() const { return destination_; }
  /// The streaming/base input, exposed so a fused pipeline driver can pull
  /// this operator's pending blocks when it acts as a chain head.
  StreamingInput* streaming_input() { return &input_; }

 private:
  const std::unique_ptr<Predicate> predicate_;
  const std::unique_ptr<Projection> projection_;
  InsertDestination* const destination_;
  std::vector<LipAttachment> lip_;
  StreamingInput input_;
};

/// Executes the select logic on one input block.
class SelectWorkOrder final : public WorkOrder {
 public:
  SelectWorkOrder(const Block* block, const SelectOperator* op)
      : block_(block), op_(op) {}

  void Execute() override;

 private:
  const Block* const block_;
  const SelectOperator* const op_;
};

}  // namespace uot

#endif  // UOT_OPERATORS_SELECT_OPERATOR_H_

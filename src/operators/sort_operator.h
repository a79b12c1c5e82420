#ifndef UOT_OPERATORS_SORT_OPERATOR_H_
#define UOT_OPERATORS_SORT_OPERATOR_H_

#include <memory>
#include <vector>

#include "operators/operator.h"
#include "storage/insert_destination.h"
#include "util/memory_tracker.h"

namespace uot {

/// One ORDER BY key.
struct SortKey {
  int col;
  bool ascending;
};

/// A blocking sort: buffers the whole input, then one work order sorts and
/// rewrites it. Sort-based operators are inherently blocking (paper §V-B),
/// so the UoT value does not apply to their input edge; they appear at the
/// top of TPC-H plans where inputs are small. The work order's packed row
/// buffer and order array are charged to `tracker` (may be null) as
/// MemoryCategory::kOther while they live.
class SortOperator final : public Operator {
 public:
  SortOperator(std::string name, const Schema& input_schema,
               std::vector<SortKey> keys, InsertDestination* destination,
               MemoryTracker* tracker,
               uint64_t limit = 0);  // limit 0 = no limit

  void AttachBaseTable(const Table* table) { input_.AttachTable(table); }

  void ReceiveInputBlocks(int input_index,
                          const std::vector<Block*>& blocks) override;
  void InputDone(int input_index) override;
  bool GenerateWorkOrders(
      std::vector<std::unique_ptr<WorkOrder>>* out) override;
  void Finish() override;

 private:
  friend class SortWorkOrder;

  const Schema input_schema_;
  const std::vector<SortKey> keys_;
  InsertDestination* const destination_;
  MemoryTracker* const tracker_;
  const uint64_t limit_;

  StreamingInput input_;
  std::vector<Block*> buffered_;
  bool generated_ = false;
};

/// Sorts the operator's buffered input and writes it out in order.
class SortWorkOrder final : public WorkOrder {
 public:
  explicit SortWorkOrder(SortOperator* op) : op_(op) {}

  void Execute() override;

 private:
  SortOperator* const op_;
};

}  // namespace uot

#endif  // UOT_OPERATORS_SORT_OPERATOR_H_

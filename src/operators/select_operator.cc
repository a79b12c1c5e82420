#include "operators/select_operator.h"

#include <numeric>

#include "operators/key_util.h"
#include "util/scratch_arena.h"

namespace uot {

SelectOperator::SelectOperator(std::string name,
                               std::unique_ptr<Predicate> predicate,
                               std::unique_ptr<Projection> projection,
                               InsertDestination* destination)
    : Operator(std::move(name)),
      predicate_(std::move(predicate)),
      projection_(std::move(projection)),
      destination_(destination) {
  UOT_CHECK(destination_ != nullptr);
  UOT_CHECK(destination_->schema() == projection_->output_schema());
}

void SelectOperator::ReceiveInputBlocks(int input_index,
                                        const std::vector<Block*>& blocks) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.Deliver(blocks);
}

void SelectOperator::InputDone(int input_index) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.MarkDone();
}

bool SelectOperator::GenerateWorkOrders(
    std::vector<std::unique_ptr<WorkOrder>>* out) {
  for (Block* block : input_.TakePending()) {
    auto wo = std::make_unique<SelectWorkOrder>(block, this);
    if (!input_.from_base_table()) wo->consumed_blocks.push_back(block);
    out->push_back(std::move(wo));
  }
  return input_.done();
}

void SelectOperator::Finish() { destination_->Flush(); }

void SelectOperator::FilterRows(const Block& block,
                                std::vector<uint32_t>* sel) const {
  predicate_->Filter(block, sel);
  // LIP pruning: drop rows whose join key cannot match any build row.
  for (const LipAttachment& lip : lip_) {
    if (sel->empty()) return;
    const LipFilter* filter = lip.source->lip_filter();
    UOT_CHECK(filter != nullptr);  // blocking edge + EnableLipFilter
    const Type& type = block.schema().column(lip.key_col).type;
    const ColumnAccess access = block.Column(lip.key_col);
    uint32_t kept = 0;
    for (const uint32_t r : *sel) {
      const uint64_t key[1] = {WidenKeyValue(type, access.at(r))};
      if (filter->MightContain(HashJoinKey(key, 1))) (*sel)[kept++] = r;
    }
    sel->resize(kept);
  }
}

void SelectWorkOrder::Execute() {
  ScratchSelVector sel;
  sel->resize(block_->num_rows());
  std::iota(sel->begin(), sel->end(), 0u);
  op_->FilterRows(*block_, sel.get());
  if (sel->empty()) return;
  InsertDestination::Writer writer(op_->destination());
  op_->projection().MaterializeInto(*block_, *sel, &writer);
}

}  // namespace uot

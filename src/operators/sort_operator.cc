#include "operators/sort_operator.h"

#include <algorithm>
#include <cstring>

namespace uot {

SortOperator::SortOperator(std::string name, const Schema& input_schema,
                           std::vector<SortKey> keys,
                           InsertDestination* destination,
                           MemoryTracker* tracker, uint64_t limit)
    : Operator(std::move(name)),
      input_schema_(input_schema),
      keys_(std::move(keys)),
      destination_(destination),
      tracker_(tracker),
      limit_(limit) {
  UOT_CHECK(!keys_.empty());
}

void SortOperator::ReceiveInputBlocks(int input_index,
                                      const std::vector<Block*>& blocks) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.Deliver(blocks);
}

void SortOperator::InputDone(int input_index) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.MarkDone();
}

bool SortOperator::GenerateWorkOrders(
    std::vector<std::unique_ptr<WorkOrder>>* out) {
  if (!input_.done()) return false;
  if (!generated_) {
    buffered_ = input_.TakePending();
    auto wo = std::make_unique<SortWorkOrder>(this);
    // The sort copies every input row into its own packed buffer, so
    // transient input blocks may be dropped after the work order runs.
    if (!input_.from_base_table()) wo->consumed_blocks = buffered_;
    out->push_back(std::move(wo));
    generated_ = true;
  }
  return true;
}

void SortOperator::Finish() { destination_->Flush(); }

void SortWorkOrder::Execute() {
  const Schema& schema = op_->input_schema_;
  const uint32_t width = schema.row_width();

  MemoryTracker* const tracker = op_->tracker_;
  auto charge = [tracker](size_t bytes) {
    if (tracker != nullptr) tracker->Allocate(MemoryCategory::kOther, bytes);
  };

  // Gather all rows into a contiguous packed buffer.
  uint64_t total = 0;
  for (const Block* b : op_->buffered_) total += b->num_rows();
  const size_t rows_bytes = total * width;
  const size_t order_bytes = total * sizeof(uint64_t);
  charge(rows_bytes);
  std::vector<std::byte> rows(rows_bytes);
  uint64_t at = 0;
  for (const Block* b : op_->buffered_) {
    for (uint32_t r = 0; r < b->num_rows(); ++r) {
      b->GetRow(r, rows.data() + at * width);
      ++at;
    }
  }

  charge(order_bytes);
  std::vector<uint64_t> order(total);
  for (uint64_t i = 0; i < total; ++i) order[i] = i;

  auto compare_rows = [&](uint64_t a, uint64_t b) {
    for (const SortKey& k : op_->keys_) {
      const Type& type = schema.column(k.col).type;
      const std::byte* va = rows.data() + a * width + schema.offset(k.col);
      const std::byte* vb = rows.data() + b * width + schema.offset(k.col);
      int c = 0;
      switch (type.id()) {
        case TypeId::kInt32:
        case TypeId::kDate: {
          int32_t x, y;
          std::memcpy(&x, va, 4);
          std::memcpy(&y, vb, 4);
          c = (x < y) ? -1 : (x > y ? 1 : 0);
          break;
        }
        case TypeId::kInt64: {
          int64_t x, y;
          std::memcpy(&x, va, 8);
          std::memcpy(&y, vb, 8);
          c = (x < y) ? -1 : (x > y ? 1 : 0);
          break;
        }
        case TypeId::kDouble: {
          double x, y;
          std::memcpy(&x, va, 8);
          std::memcpy(&y, vb, 8);
          c = (x < y) ? -1 : (x > y ? 1 : 0);
          break;
        }
        case TypeId::kChar:
          c = std::memcmp(va, vb, type.width());
          break;
      }
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return a < b;  // stable tie-break
  };
  std::sort(order.begin(), order.end(), compare_rows);

  uint64_t emit = total;
  if (op_->limit_ > 0 && op_->limit_ < emit) emit = op_->limit_;
  InsertDestination::Writer writer(op_->destination_);
  for (uint64_t i = 0; i < emit; ++i) {
    writer.AppendRow(rows.data() + order[i] * width);
  }
  if (tracker != nullptr) {
    tracker->Release(MemoryCategory::kOther, rows_bytes + order_bytes);
  }
}

}  // namespace uot

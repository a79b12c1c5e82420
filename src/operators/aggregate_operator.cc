#include "operators/aggregate_operator.h"

#include <cstring>
#include <numeric>

#include "operators/key_util.h"

namespace uot {

AggregateOperator::AggregateOperator(std::string name,
                                     const Schema& input_schema,
                                     std::vector<int> group_cols,
                                     std::vector<AggSpec> aggs,
                                     std::unique_ptr<Predicate> predicate,
                                     InsertDestination* destination)
    : Operator(std::move(name)),
      input_schema_(input_schema),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      predicate_(std::move(predicate)),
      destination_(destination) {
  UOT_CHECK(group_cols_.size() <= 3);
  for (int c : group_cols_) {
    UOT_CHECK(IsKeyableType(input_schema_.column(c).type));
  }
  UOT_CHECK(!aggs_.empty());
}

void AggregateOperator::ReceiveInputBlocks(int input_index,
                                           const std::vector<Block*>& blocks) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.Deliver(blocks);
}

void AggregateOperator::InputDone(int input_index) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.MarkDone();
}

bool AggregateOperator::GenerateWorkOrders(
    std::vector<std::unique_ptr<WorkOrder>>* out) {
  for (Block* block : input_.TakePending()) {
    auto wo = std::make_unique<AggregateWorkOrder>(block, this);
    if (!input_.from_base_table()) wo->consumed_blocks.push_back(block);
    out->push_back(std::move(wo));
  }
  return input_.done();
}

void AggregateOperator::MergePartial(GroupMap&& partial) {
  std::lock_guard<std::mutex> lock(merge_mutex_);
  for (auto& [key, states] : partial) {
    auto [it, inserted] = groups_.try_emplace(key, std::move(states));
    if (!inserted) {
      for (size_t a = 0; a < aggs_.size(); ++a) {
        it->second[a].Merge(states[a]);
      }
    }
  }
}

void AggregateOperator::Finish() {
  // Materialize final groups (single-threaded; group counts are small
  // relative to input sizes).
  {
    const Schema& out_schema = destination_->schema();
    std::vector<std::byte> row(out_schema.row_width());
    InsertDestination::Writer writer(destination_);
    // Scalar aggregation over empty input still produces one row of zeros.
    if (groups_.empty() && group_cols_.empty()) {
      groups_.try_emplace(GroupKey{0, 0, 0},
                          std::vector<AggState>(aggs_.size()));
    }
    for (const auto& [key, states] : groups_) {
      int col = 0;
      for (size_t g = 0; g < group_cols_.size(); ++g, ++col) {
        const Type& type = input_schema_.column(group_cols_[g]).type;
        UnwidenKeyValue(type, key[g], row.data() + out_schema.offset(col));
      }
      for (size_t a = 0; a < aggs_.size(); ++a, ++col) {
        const AggState& s = states[a];
        if (aggs_[a].fn == AggFn::kCount) {
          std::memcpy(row.data() + out_schema.offset(col), &s.count, 8);
        } else {
          double v = 0.0;
          switch (aggs_[a].fn) {
            case AggFn::kSum:
              v = s.sum;
              break;
            case AggFn::kAvg:
              v = s.count == 0 ? 0.0 : s.sum / static_cast<double>(s.count);
              break;
            case AggFn::kMin:
              v = s.min;
              break;
            case AggFn::kMax:
              v = s.max;
              break;
            case AggFn::kCount:
              break;
          }
          std::memcpy(row.data() + out_schema.offset(col), &v, 8);
        }
      }
      writer.AppendRow(row.data());
    }
  }
  destination_->Flush();
}

Schema AggregateOperator::OutputSchema(const Schema& input_schema,
                                       const std::vector<int>& group_cols,
                                       const std::vector<AggSpec>& aggs) {
  std::vector<Column> columns;
  for (int c : group_cols) columns.push_back(input_schema.column(c));
  for (const AggSpec& a : aggs) {
    columns.push_back(Column{
        a.name, a.fn == AggFn::kCount ? Type::Int64() : Type::Double()});
  }
  return Schema(std::move(columns));
}

void AggregateOperator::Accumulate(const Block& block,
                                   std::vector<uint32_t>* sel,
                                   GroupMap* partial) const {
  if (predicate_ != nullptr) predicate_->Filter(block, sel);
  const uint32_t n = static_cast<uint32_t>(sel->size());
  if (n == 0) return;

  // Evaluate aggregate inputs column-at-a-time.
  std::vector<std::vector<double>> inputs(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].expr != nullptr) {
      inputs[a].resize(n);
      EvalAsDouble(*aggs_[a].expr, block, sel->data(), n, inputs[a].data());
    }
  }

  GroupKey key = {0, 0, 0};
  for (uint32_t i = 0; i < n; ++i) {
    for (size_t g = 0; g < group_cols_.size(); ++g) {
      const int col = group_cols_[g];
      key[g] = WidenKeyValue(block.schema().column(col).type,
                             block.Column(col).at((*sel)[i]));
    }
    auto [it, inserted] = partial->try_emplace(key, aggs_.size(), AggState{});
    std::vector<AggState>& states = it->second;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggState& s = states[a];
      ++s.count;
      if (aggs_[a].expr != nullptr) {
        const double v = inputs[a][i];
        s.Add(v);
        if (v < s.min) s.min = v;
        if (v > s.max) s.max = v;
      }
    }
  }
}

void AggregateWorkOrder::Execute() {
  std::vector<uint32_t> sel(block_->num_rows());
  std::iota(sel.begin(), sel.end(), 0u);
  AggregateOperator::GroupMap partial;
  op_->Accumulate(*block_, &sel, &partial);
  if (!partial.empty()) op_->MergePartial(std::move(partial));
}

}  // namespace uot

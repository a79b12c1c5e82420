#include "operators/aggregate_operator.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "operators/key_util.h"
#include "util/scratch_arena.h"

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

GroupTable* AggregateOperator::ThreadPartial() const {
  thread_local GroupTable partial;
  partial.Reset(aggs_.size());
  return &partial;
}

void AggregateOperator::MergePartial(const GroupTable& partial) {
  const uint32_t n = partial.size();
  if (n == 0) return;
  // Counting sort of the partial's groups into partition buckets.
  std::array<uint32_t, kNumPartitions + 1> begin{};
  for (uint32_t g = 0; g < n; ++g) {
    ++begin[(partial.hash(g) >> (64 - kPartitionBits)) + 1];
  }
  for (size_t p = 0; p < kNumPartitions; ++p) begin[p + 1] += begin[p];
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  uint32_t* order = arena.AllocArray<uint32_t>(n);
  std::array<uint32_t, kNumPartitions> cursor;
  std::copy(begin.begin(), begin.end() - 1, cursor.begin());
  for (uint32_t g = 0; g < n; ++g) {
    order[cursor[partial.hash(g) >> (64 - kPartitionBits)]++] = g;
  }

  const size_t num_aggs = aggs_.size();
  for (size_t p = 0; p < kNumPartitions; ++p) {
    if (begin[p] == begin[p + 1]) continue;
    Partition& part = partitions_[p];
    std::lock_guard<std::mutex> lock(part.mutex);
    if (part.table == nullptr) {
      part.table = std::make_unique<GroupTable>();
      part.table->Reset(num_aggs);
    }
    for (uint32_t i = begin[p]; i < begin[p + 1]; ++i) {
      const uint32_t g = order[i];
      bool inserted = false;
      AggState* states = part.table->states(
          part.table->FindOrInsert(partial.key(g), partial.hash(g), &inserted));
      const AggState* src = partial.states(g);
      if (inserted) {
        std::copy(src, src + num_aggs, states);
      } else {
        for (size_t a = 0; a < num_aggs; ++a) states[a].Merge(src[a]);
      }
    }
  }
}

void AggregateOperator::Finish() {
  // Materialize final groups (single-threaded, partition by partition).
  {
    const Schema& out_schema = destination_->schema();
    std::vector<std::byte> row(out_schema.row_width());
    InsertDestination::Writer writer(destination_);
    auto emit = [&](const GroupKey& key, const AggState* states) {
      int col = 0;
      for (size_t g = 0; g < group_cols_.size(); ++g, ++col) {
        const Type& type = input_schema_.column(group_cols_[g]).type;
        UnwidenKeyValue(type, key[g], row.data() + out_schema.offset(col));
      }
      for (size_t a = 0; a < aggs_.size(); ++a, ++col) {
        const AggState& s = states[a];
        if (aggs_[a].fn == AggFn::kCount) {
          std::memcpy(row.data() + out_schema.offset(col), &s.count, 8);
          continue;
        }
        // Every function of an empty input (only a scalar aggregate has
        // one) is 0.
        double v = 0.0;
        if (s.count != 0) {
          switch (aggs_[a].fn) {
            case AggFn::kSum:
              v = s.Total();
              break;
            case AggFn::kAvg:
              v = s.Total() / static_cast<double>(s.count);
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
        }
        std::memcpy(row.data() + out_schema.offset(col), &v, 8);
      }
      writer.AppendRow(row.data());
    };
    bool any = false;
    for (const Partition& part : partitions_) {
      if (part.table == nullptr) continue;
      const GroupTable& table = *part.table;
      for (uint32_t g = 0; g < table.size(); ++g) {
        emit(table.key(g), table.states(g));
      }
      any = true;
    }
    // Scalar aggregation over empty input still produces one row of zeros.
    if (!any && group_cols_.empty()) {
      const std::vector<AggState> empty(aggs_.size());
      emit(GroupKey{0, 0, 0}, empty.data());
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
                                   GroupTable* partial) const {
  if (predicate_ != nullptr) predicate_->Filter(block, sel);
  const uint32_t n = static_cast<uint32_t>(sel->size());
  if (n == 0) return;
  const uint32_t* rows = sel->data();
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);

  // Resolve every row's group first: inserts may move the state array.
  uint32_t* groups = arena.AllocArray<uint32_t>(n);
  if (group_cols_.empty()) {
    const GroupKey key = {0, 0, 0};
    std::fill(groups, groups + n,
              partial->FindOrInsert(key, GroupTable::Hash(key)));
  } else {
    GroupKey* keys = arena.AllocArray<GroupKey>(n);
    std::fill(keys, keys + n, GroupKey{0, 0, 0});
    for (size_t g = 0; g < group_cols_.size(); ++g) {
      const int col = group_cols_[g];
      const Type& type = block.schema().column(col).type;
      const ColumnAccess access = block.Column(col);
      for (uint32_t i = 0; i < n; ++i) {
        keys[i][g] = WidenKeyValue(type, access.at(rows[i]));
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      groups[i] = partial->FindOrInsert(keys[i], GroupTable::Hash(keys[i]));
    }
  }

  // Then update the states one aggregate at a time, its input evaluated
  // column-at-a-time. Each group still sees its rows in row order.
  const size_t stride = aggs_.size();
  double* inputs = arena.AllocArray<double>(n);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    AggState* states = partial->states(0) + a;
    if (aggs_[a].expr == nullptr) {
      for (uint32_t i = 0; i < n; ++i) ++states[groups[i] * stride].count;
      continue;
    }
    EvalAsDouble(*aggs_[a].expr, block, rows, n, inputs);
    for (uint32_t i = 0; i < n; ++i) {
      AggState& s = states[groups[i] * stride];
      const double v = inputs[i];
      ++s.count;
      s.Add(v);
      if (v < s.min) s.min = v;
      if (v > s.max) s.max = v;
    }
  }
}

void AggregateWorkOrder::Execute() {
  ScratchSelVector sel;
  sel->resize(block_->num_rows());
  std::iota(sel->begin(), sel->end(), 0u);
  GroupTable* partial = op_->ThreadPartial();
  op_->Accumulate(*block_, sel.get(), partial);
  op_->MergePartial(*partial);
}

void GroupTable::Reset(size_t num_aggs) {
  if (static_cast<size_t>(size()) * 8 < slots_.size()) {
    // Sparse: empty just the occupied slots rather than the whole array
    // (a thread's table keeps the capacity its largest partial needed).
    for (uint32_t g = 0; g < size(); ++g) {
      size_t pos = hashes_[g] & mask_;
      while (slots_[pos].group_plus_one != g + 1) pos = (pos + 1) & mask_;
      slots_[pos] = Slot{};
    }
  } else {
    std::fill(slots_.begin(), slots_.end(), Slot{});
  }
  keys_.clear();
  hashes_.clear();
  states_.clear();
  num_aggs_ = num_aggs;
}

void GroupTable::Grow() {
  const size_t capacity = slots_.empty() ? 64 : 2 * slots_.size();
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  for (uint32_t g = 0; g < size(); ++g) {
    size_t pos = hashes_[g] & mask_;
    while (slots_[pos].group_plus_one != 0) pos = (pos + 1) & mask_;
    slots_[pos] = Slot{static_cast<uint32_t>(hashes_[g] >> 32), g + 1};
  }
}

}  // namespace uot

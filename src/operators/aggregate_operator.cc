#include "operators/aggregate_operator.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "model/memory_model.h"
#include "operators/key_util.h"
#include "util/scratch_arena.h"

namespace uot {
AggLayout::AggLayout(const std::vector<AggSpec>& aggs) {
  init_.push_back(AggWord{0});  // the row count
  for (const AggSpec& spec : aggs) {
    fns_.push_back(spec.fn);
    switch (spec.fn) {
      case AggFn::kCount:
        offsets_.push_back(0);
        break;
      case AggFn::kSum:
      case AggFn::kAvg:
        offsets_.push_back(static_cast<uint32_t>(init_.size()));
        init_.push_back(AggWord{.value = 0.0});
        init_.push_back(AggWord{.value = 0.0});
        break;
      case AggFn::kMin:
        offsets_.push_back(static_cast<uint32_t>(init_.size()));
        init_.push_back(AggWord{.value = 1e308});
        break;
      case AggFn::kMax:
        offsets_.push_back(static_cast<uint32_t>(init_.size()));
        init_.push_back(AggWord{.value = -1e308});
        break;
    }
  }
}

void AggLayout::Merge(AggWord* dst, const AggWord* src) const {
  dst[0].count += src[0].count;
  for (size_t a = 0; a < fns_.size(); ++a) {
    const uint32_t o = offsets_[a];
    switch (fns_[a]) {
      case AggFn::kCount:
        break;
      case AggFn::kSum:
      case AggFn::kAvg:
        Add(dst + o, src[o].value);
        dst[o + 1].value += src[o + 1].value;
        break;
      case AggFn::kMin:
        if (src[o].value < dst[o].value) dst[o].value = src[o].value;
        break;
      case AggFn::kMax:
        if (src[o].value > dst[o].value) dst[o].value = src[o].value;
        break;
    }
  }
}

void AggLayout::WriteResult(size_t a, const AggWord* state,
                            std::byte* out) const {
  const int64_t count = state[0].count;
  if (fns_[a] == AggFn::kCount) {
    std::memcpy(out, &count, 8);
    return;
  }
  const AggWord* s = state + offsets_[a];
  double v = 0.0;
  if (count != 0) {
    switch (fns_[a]) {
      case AggFn::kSum:
        v = Total(s);
        break;
      case AggFn::kAvg:
        v = Total(s) / static_cast<double>(count);
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        v = s->value;
        break;
      case AggFn::kCount:
        break;
    }
  }
  std::memcpy(out, &v, 8);
}

AggregateOperator::AggregateOperator(std::string name,
                                     const Schema& input_schema,
                                     std::vector<int> group_cols,
                                     std::vector<AggSpec> aggs,
                                     std::unique_ptr<Predicate> predicate,
                                     InsertDestination* destination,
                                     MemoryTracker* tracker)
    : Operator(std::move(name)),
      input_schema_(input_schema),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      layout_(aggs_),
      predicate_(std::move(predicate)),
      destination_(destination),
      tracker_(tracker) {
  UOT_CHECK(group_cols_.size() <= 3);
  for (int c : group_cols_) {
    UOT_CHECK(IsKeyableType(input_schema_.column(c).type));
  }
  UOT_CHECK(!aggs_.empty());
}

AggregateOperator::~AggregateOperator() { ReleaseGroups(); }

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

void AggregateOperator::ChooseLayout() {
  layout_chosen_ = true;
  int64_t min_key = 0;
  int64_t max_key = 0;
  if (base_table_ == nullptr || group_cols_.size() != 1 ||
      !base_table_->IntegralRange(group_cols_[0], &min_key, &max_key)) {
    return;
  }
  // Unsigned difference: exact for any signed pair; a span of 2^64 keys
  // wraps to 0, which keeps the hash layout.
  const uint64_t range =
      static_cast<uint64_t>(max_key) - static_cast<uint64_t>(min_key) + 1;
  const MemoryModel::AggregationFootprint footprint =
      MemoryModel::AggregationBytes(base_table_->NumRows(), range,
                                    static_cast<uint64_t>(num_workers_),
                                    layout_.bytes());
  if (!footprint.dense) return;
  dense_min_ = static_cast<uint64_t>(min_key);
  dense_range_ = range;
  dense_array_bytes_ = footprint.bytes;
  dense_arrays_.resize(static_cast<size_t>(num_workers_));
}

bool AggregateOperator::GenerateWorkOrders(
    std::vector<std::unique_ptr<WorkOrder>>* out) {
  if (!layout_chosen_) ChooseLayout();
  for (Block* block : input_.TakePending()) {
    auto wo = std::make_unique<AggregateWorkOrder>(block, this);
    if (!input_.from_base_table()) wo->consumed_blocks.push_back(block);
    out->push_back(std::move(wo));
  }
  return input_.done();
}

GroupTable* AggregateOperator::ThreadPartial() const {
  thread_local GroupTable partial;
  partial.Reset(layout_);
  return &partial;
}

AggWord* AggregateOperator::DenseArray(int worker) {
  UOT_CHECK(worker >= 0 &&
            static_cast<size_t>(worker) < dense_arrays_.size());
  std::unique_ptr<AggWord[]>& array =
      dense_arrays_[static_cast<size_t>(worker)];
  if (array == nullptr) {
    const size_t words = layout_.words();
    array = std::make_unique_for_overwrite<AggWord[]>(dense_range_ * words);
    for (uint64_t g = 0; g < dense_range_; ++g) {
      std::copy(layout_.init(), layout_.init() + words,
                array.get() + g * words);
    }
    if (tracker_ != nullptr) {
      tracker_->Allocate(MemoryCategory::kAggregation, dense_array_bytes_);
    }
  }
  return array.get();
}

void AggregateOperator::ExecuteBlock(const Block& block, int worker) {
  ScratchSelVector sel;
  sel->resize(block.num_rows());
  std::iota(sel->begin(), sel->end(), 0u);
  if (!dense()) {
    GroupTable* partial = ThreadPartial();
    Accumulate(block, sel.get(), partial);
    MergePartial(*partial);
    return;
  }
  if (predicate_ != nullptr) predicate_->Filter(block, sel.get());
  const uint32_t n = static_cast<uint32_t>(sel->size());
  if (n == 0) return;
  const uint32_t* rows = sel->data();
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  // A key's group is its offset from the smallest key.
  uint32_t* groups = arena.AllocArray<uint32_t>(n);
  const int col = group_cols_[0];
  const ColumnAccess access = block.Column(col);
  if (block.schema().column(col).type.width() == 4) {
    for (uint32_t i = 0; i < n; ++i) {
      int32_t v;
      std::memcpy(&v, access.at(rows[i]), 4);
      groups[i] = static_cast<uint32_t>(
          static_cast<uint64_t>(static_cast<int64_t>(v)) - dense_min_);
    }
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      int64_t v;
      std::memcpy(&v, access.at(rows[i]), 8);
      groups[i] =
          static_cast<uint32_t>(static_cast<uint64_t>(v) - dense_min_);
    }
  }
  UpdateStates(block, rows, n, groups, DenseArray(worker));
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

  const size_t words = layout_.words();
  for (size_t p = 0; p < kNumPartitions; ++p) {
    if (begin[p] == begin[p + 1]) continue;
    Partition& part = partitions_[p];
    std::lock_guard<std::mutex> lock(part.mutex);
    if (part.table == nullptr) {
      part.table = std::make_unique<GroupTable>(tracker_);
      part.table->Reset(layout_);
    }
    GroupTable& table = *part.table;
    for (uint32_t i = begin[p]; i < begin[p + 1]; ++i) {
      const uint32_t g = order[i];
      bool inserted = false;
      AggWord* states = table.states(
          table.FindOrInsert(partial.key(g), partial.hash(g), &inserted));
      const AggWord* src = partial.states(g);
      if (inserted) {
        std::copy(src, src + words, states);
      } else {
        layout_.Merge(states, src);
      }
    }
  }
}

void AggregateOperator::Finish() {
  // Materialize final groups (single-threaded).
  {
    const Schema& out_schema = destination_->schema();
    std::vector<std::byte> row(out_schema.row_width());
    InsertDestination::Writer writer(destination_);
    auto emit = [&](const GroupKey& key, const AggWord* state) {
      int col = 0;
      for (size_t g = 0; g < group_cols_.size(); ++g, ++col) {
        const Type& type = input_schema_.column(group_cols_[g]).type;
        UnwidenKeyValue(type, key[g], row.data() + out_schema.offset(col));
      }
      for (size_t a = 0; a < aggs_.size(); ++a, ++col) {
        layout_.WriteResult(a, state, row.data() + out_schema.offset(col));
      }
      writer.AppendRow(row.data());
    };
    bool any = false;
    if (dense()) {
      // Add the worker arrays into the first one, element by element, in
      // worker order; then emit the keys some row reached.
      const size_t words = layout_.words();
      AggWord* total = nullptr;
      for (const std::unique_ptr<AggWord[]>& array : dense_arrays_) {
        if (array == nullptr) continue;
        if (total == nullptr) {
          total = array.get();
          continue;
        }
        for (uint64_t g = 0; g < dense_range_; ++g) {
          const AggWord* src = array.get() + g * words;
          if (src[0].count != 0) layout_.Merge(total + g * words, src);
        }
      }
      for (uint64_t g = 0; total != nullptr && g < dense_range_; ++g) {
        const AggWord* state = total + g * words;
        if (state[0].count != 0) emit(GroupKey{dense_min_ + g, 0, 0}, state);
      }
      any = total != nullptr;
    } else {
      for (const Partition& part : partitions_) {
        if (part.table == nullptr) continue;
        const GroupTable& table = *part.table;
        for (uint32_t g = 0; g < table.size(); ++g) {
          emit(table.key(g), table.states(g));
        }
        any = true;
      }
    }
    // Scalar aggregation over empty input still produces one row of zeros.
    if (!any && group_cols_.empty()) emit(GroupKey{0, 0, 0}, layout_.init());
  }
  destination_->Flush();
  ReleaseGroups();
}

void AggregateOperator::ReleaseGroups() {
  for (std::unique_ptr<AggWord[]>& array : dense_arrays_) {
    if (array == nullptr) continue;
    array.reset();
    if (tracker_ != nullptr) {
      tracker_->Release(MemoryCategory::kAggregation, dense_array_bytes_);
    }
  }
  for (Partition& part : partitions_) part.table.reset();
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
  UpdateStates(block, rows, n, groups, partial->states(0));
}

void AggregateOperator::UpdateStates(const Block& block, const uint32_t* rows,
                                     uint32_t n, const uint32_t* groups,
                                     AggWord* states) const {
  // Row counts first, then one aggregate at a time, its input evaluated
  // column-at-a-time. Each group still sees its rows in row order.
  const size_t stride = layout_.words();
  for (uint32_t i = 0; i < n; ++i) ++states[groups[i] * stride].count;
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  double* inputs = arena.AllocArray<double>(n);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const AggFn fn = aggs_[a].fn;
    if (fn == AggFn::kCount) continue;  // reads the row count
    EvalAsDouble(*aggs_[a].expr, block, rows, n, inputs);
    AggWord* base = states + layout_.offset(a);
    switch (fn) {
      case AggFn::kSum:
      case AggFn::kAvg:
        for (uint32_t i = 0; i < n; ++i) {
          AggLayout::Add(base + groups[i] * stride, inputs[i]);
        }
        break;
      case AggFn::kMin:
        for (uint32_t i = 0; i < n; ++i) {
          double& m = base[groups[i] * stride].value;
          if (inputs[i] < m) m = inputs[i];
        }
        break;
      case AggFn::kMax:
        for (uint32_t i = 0; i < n; ++i) {
          double& m = base[groups[i] * stride].value;
          if (inputs[i] > m) m = inputs[i];
        }
        break;
      case AggFn::kCount:
        break;
    }
  }
}

GroupTable::~GroupTable() {
  if (tracker_ != nullptr && charged_bytes_ > 0) {
    tracker_->Release(MemoryCategory::kAggregation, charged_bytes_);
  }
}

void GroupTable::Reset(const AggLayout& layout) {
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
  init_.assign(layout.init(), layout.init() + layout.words());
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
  // The slots admit capacity / 2 groups (load <= 1/2).
  const size_t groups = capacity / 2;
  keys_.reserve(groups);
  hashes_.reserve(groups);
  states_.reserve(groups * init_.size());
  if (tracker_ != nullptr) {
    const uint64_t bytes =
        MemoryModel::AggregationBytes(groups, /*key_range=*/0,
                                      /*workers=*/1,
                                      init_.size() * sizeof(AggWord))
            .bytes;
    tracker_->Allocate(MemoryCategory::kAggregation, bytes - charged_bytes_);
    charged_bytes_ = bytes;
  }
}

}  // namespace uot

#include "operators/aggregate_operator.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "model/memory_model.h"
#include "operators/key_util.h"
#include "util/scratch_arena.h"

namespace uot {
namespace {

std::vector<AggFn> Functions(const std::vector<AggSpec>& aggs) {
  std::vector<AggFn> fns;
  for (const AggSpec& spec : aggs) fns.push_back(spec.fn);
  return fns;
}

}  // namespace

AggLayout::AggLayout(const std::vector<AggFn>& fns)
    : fns_(fns), offsets_(fns.size(), 0) {
  // The row count, then the (sum, comp) pairs, then MIN and MAX.
  init_.push_back(AggWord{0});
  for (uint32_t s = 0; s < fns_.size(); ++s) {
    if (fns_[s] != AggFn::kSum && fns_[s] != AggFn::kAvg) continue;
    sum_states_.push_back(s);
    offsets_[s] = static_cast<uint32_t>(init_.size());
    init_.push_back(AggWord{.value = 0.0});
    init_.push_back(AggWord{.value = 0.0});
  }
  for (uint32_t s = 0; s < fns_.size(); ++s) {
    if (fns_[s] != AggFn::kMin && fns_[s] != AggFn::kMax) continue;
    minmax_states_.push_back(s);
    offsets_[s] = static_cast<uint32_t>(init_.size());
    init_.push_back(AggWord{.value = fns_[s] == AggFn::kMin ? 1e308 : -1e308});
  }
}

AggLayout::AggLayout(const std::vector<AggSpec>& aggs)
    : AggLayout(Functions(aggs)) {}

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

void AggLayout::Update(const uint32_t* groups, uint32_t n,
                       const double* const* inputs, AggWord* states) const {
  if (n == 0) return;
  const uint32_t first = groups[0];
  bool one_group = true;
  for (uint32_t i = 1; i < n; ++i) one_group &= groups[i] == first;
  if (one_group) {
    UpdateGroup(states + static_cast<size_t>(first) * words(), n, inputs);
  } else {
    UpdateScatter(groups, n, inputs, states);
  }
}

namespace {

/// Visits the state row `states + groups[i] * stride` of each row i < n
/// once: counts the row in word 0 if kCount, and adds its K inputs to the
/// K (sum, comp) pairs side by side from word 1. The K chains of a group
/// overlap; each pair takes AggLayout::Add's steps in row order.
template <size_t K, bool kCount>
void ScatterSums(const uint32_t* groups, uint32_t n, size_t stride,
                 const double* const* inputs, AggWord* states) {
  const double* in[K];
  for (size_t k = 0; k < K; ++k) in[k] = inputs[k];
  for (uint32_t i = 0; i < n; ++i) {
    AggWord* s = states + groups[i] * stride;
    if constexpr (kCount) ++s[0].count;
#pragma GCC unroll 8
    for (size_t k = 0; k < K; ++k) AggLayout::Add(s + 1 + 2 * k, in[k][i]);
  }
}

/// ScatterSums for a run-time k in [1, 8].
template <bool kCount>
void ScatterSumsOf(size_t k, const uint32_t* groups, uint32_t n,
                   size_t stride, const double* const* inputs,
                   AggWord* states) {
  switch (k) {
    case 1:
      return ScatterSums<1, kCount>(groups, n, stride, inputs, states);
    case 2:
      return ScatterSums<2, kCount>(groups, n, stride, inputs, states);
    case 3:
      return ScatterSums<3, kCount>(groups, n, stride, inputs, states);
    case 4:
      return ScatterSums<4, kCount>(groups, n, stride, inputs, states);
    case 5:
      return ScatterSums<5, kCount>(groups, n, stride, inputs, states);
    case 6:
      return ScatterSums<6, kCount>(groups, n, stride, inputs, states);
    case 7:
      return ScatterSums<7, kCount>(groups, n, stride, inputs, states);
    default:
      return ScatterSums<8, kCount>(groups, n, stride, inputs, states);
  }
}

/// Runs K sums over rows [0, len) with each (sum, comp) pair in registers:
/// the K chains are independent, so they overlap. Each pair takes
/// AggLayout::Add's steps in row order.
template <size_t K>
void RunSums(AggWord* const* pairs, const double* const* in, uint32_t len) {
  double sum[K];
  double comp[K];
#pragma GCC unroll 4
  for (size_t k = 0; k < K; ++k) {
    sum[k] = pairs[k][0].value;
    comp[k] = pairs[k][1].value;
  }
  for (uint32_t j = 0; j < len; ++j) {
#pragma GCC unroll 4
    for (size_t k = 0; k < K; ++k) {
      const double v = in[k][j];
      const double s = sum[k];
      const double t = s + v;
      comp[k] += std::fabs(s) >= std::fabs(v) ? (s - t) + v : (v - t) + s;
      sum[k] = t;
    }
  }
#pragma GCC unroll 4
  for (size_t k = 0; k < K; ++k) {
    pairs[k][0].value = sum[k];
    pairs[k][1].value = comp[k];
  }
}

}  // namespace

void AggLayout::UpdateScatter(const uint32_t* groups, uint32_t n,
                              const double* const* inputs,
                              AggWord* states) const {
  const size_t stride = words();
  if (sum_states_.empty()) {
    for (uint32_t i = 0; i < n; ++i) ++states[groups[i] * stride].count;
  }
  // The pairs follow the row count, in sum_states_ order; the first pass
  // also counts the rows.
  for (size_t c = 0; c < sum_states_.size(); c += 8) {
    const size_t k = std::min<size_t>(8, sum_states_.size() - c);
    const double* in[8];
    for (size_t j = 0; j < k; ++j) in[j] = inputs[sum_states_[c + j]];
    if (c == 0) {
      ScatterSumsOf<true>(k, groups, n, stride, in, states);
    } else {
      ScatterSumsOf<false>(k, groups, n, stride, in, states + 2 * c);
    }
  }
  if (minmax_states_.empty()) return;
  for (uint32_t i = 0; i < n; ++i) {
    AggWord* state = states + groups[i] * stride;
    for (const uint32_t s : minmax_states_) {
      const double v = inputs[s][i];
      double& m = state[offsets_[s]].value;
      if (fns_[s] == AggFn::kMin ? v < m : v > m) m = v;
    }
  }
}

void AggLayout::UpdateGroup(AggWord* state, uint32_t n,
                            const double* const* inputs) const {
  state[0].count += n;
  // Sums in chunks of up to four, then MIN and MAX one at a time.
  for (size_t c = 0; c < sum_states_.size(); c += 4) {
    const size_t k = std::min<size_t>(4, sum_states_.size() - c);
    AggWord* pairs[4];
    const double* in[4];
    for (size_t i = 0; i < k; ++i) {
      pairs[i] = state + offsets_[sum_states_[c + i]];
      in[i] = inputs[sum_states_[c + i]];
    }
    switch (k) {
      case 1:
        RunSums<1>(pairs, in, n);
        break;
      case 2:
        RunSums<2>(pairs, in, n);
        break;
      case 3:
        RunSums<3>(pairs, in, n);
        break;
      default:
        RunSums<4>(pairs, in, n);
        break;
    }
  }
  for (const uint32_t s : minmax_states_) {
    const double* in = inputs[s];
    double m = state[offsets_[s]].value;
    if (fns_[s] == AggFn::kMin) {
      for (uint32_t j = 0; j < n; ++j) m = in[j] < m ? in[j] : m;
    } else {
      for (uint32_t j = 0; j < n; ++j) m = in[j] > m ? in[j] : m;
    }
    state[offsets_[s]].value = m;
  }
}

void AggLayout::WriteResult(AggFn fn, size_t s, const AggWord* state,
                            std::byte* out) const {
  const int64_t count = state[0].count;
  if (fn == AggFn::kCount) {
    std::memcpy(out, &count, 8);
    return;
  }
  const AggWord* words = state + offsets_[s];
  double v = 0.0;
  if (count != 0) {
    switch (fn) {
      case AggFn::kSum:
        v = Total(words);
        break;
      case AggFn::kAvg:
        v = Total(words) / static_cast<double>(count);
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        v = words->value;
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
      predicate_(std::move(predicate)),
      destination_(destination),
      tracker_(tracker) {
  UOT_CHECK(group_cols_.size() <= 3);
  for (int c : group_cols_) {
    UOT_CHECK(IsKeyableType(input_schema_.column(c).type));
  }
  UOT_CHECK(!aggs_.empty());
  // One state per distinct function and input: SUM and AVG over one input
  // share a SUM state, and every COUNT reads the row count.
  std::vector<AggFn> fns;
  for (const AggSpec& spec : aggs_) {
    const AggFn fn = spec.fn == AggFn::kAvg ? AggFn::kSum : spec.fn;
    const int input = fn == AggFn::kCount
                          ? -1
                          : static_cast<int>(inputs_.Add(*spec.expr));
    uint32_t s = 0;
    while (s < fns.size() && (fns[s] != fn || state_input_[s] != input)) ++s;
    if (s == fns.size()) {
      fns.push_back(fn);
      state_input_.push_back(input);
    }
    state_of_.push_back(s);
  }
  layout_ = AggLayout(fns);
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
  if (base_table_ == nullptr) return;
  constexpr uint64_t kMaxGroups = uint64_t{1} << 32;
  uint64_t range = 1;  // a scalar aggregate is one group
  for (size_t k = 0; k < group_cols_.size(); ++k) {
    uint64_t key_range = 0;
    if (!base_table_->KeyRange(group_cols_[k], &dense_min_[k], &key_range) ||
        key_range == 0 || key_range > kMaxGroups / range) {
      return;
    }
    dense_key_range_[k] = key_range;
    range *= key_range;
  }
  const MemoryModel::AggregationFootprint footprint =
      MemoryModel::AggregationBytes(base_table_->NumRows(), range,
                                    static_cast<uint64_t>(num_workers_),
                                    layout_.bytes());
  if (!footprint.dense) return;
  // The last key varies fastest, so group indexes follow the keys' order.
  uint64_t stride = 1;
  for (size_t k = group_cols_.size(); k-- > 0;) {
    dense_stride_[k] = static_cast<uint32_t>(stride);
    stride *= dense_key_range_[k];
  }
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
  // A group's index is mixed-radix over the keys' offsets from their
  // smallest words; every term and the sum fit 32 bits.
  uint32_t* groups = arena.AllocArray<uint32_t>(n);
  std::fill(groups, groups + n, 0u);
  for (size_t k = 0; k < group_cols_.size(); ++k) {
    const int col = group_cols_[k];
    const uint64_t min_word = dense_min_[k];
    const uint32_t stride = dense_stride_[k];
    ForEachKeyWord(
        block.schema().column(col).type, block.Column(col),
        [rows](uint32_t i) { return rows[i]; }, n,
        [=](uint32_t i, uint64_t word) {
          groups[i] += static_cast<uint32_t>(word - min_word) * stride;
        });
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
        layout_.WriteResult(aggs_[a].fn, state_of_[a], state,
                            row.data() + out_schema.offset(col));
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
      // A scalar aggregate's one group is emitted even without rows.
      for (uint64_t g = 0; total != nullptr && g < dense_range_; ++g) {
        const AggWord* state = total + g * words;
        if (state[0].count == 0 && !group_cols_.empty()) continue;
        GroupKey key = {0, 0, 0};
        for (size_t k = 0; k < group_cols_.size(); ++k) {
          key[k] = dense_min_[k] +
                   (g / dense_stride_[k]) % dense_key_range_[k];
        }
        emit(key, state);
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
    for (size_t k = 0; k < group_cols_.size(); ++k) {
      const int col = group_cols_[k];
      ForEachKeyWord(
          block.schema().column(col).type, block.Column(col),
          [rows](uint32_t i) { return rows[i]; }, n,
          [=](uint32_t i, uint64_t word) { keys[i][k] = word; });
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
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  double* values = arena.AllocArray<double>(inputs_.size() * n);
  inputs_.Eval(block, rows, n, values);
  const double** inputs = arena.AllocArray<const double*>(state_input_.size());
  for (size_t s = 0; s < state_input_.size(); ++s) {
    inputs[s] = state_input_[s] < 0
                    ? nullptr
                    : values + static_cast<size_t>(state_input_[s]) * n;
  }
  layout_.Update(groups, n, inputs, states);
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

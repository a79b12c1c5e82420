#ifndef UOT_OPERATORS_AGGREGATE_OPERATOR_H_
#define UOT_OPERATORS_AGGREGATE_OPERATOR_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "expr/predicate.h"
#include "expr/projection.h"
#include "operators/operator.h"
#include "storage/insert_destination.h"
#include "util/macros.h"
#include "util/memory_tracker.h"

namespace uot {

enum class AggFn : uint8_t { kCount, kSum, kMin, kMax, kAvg };

/// One aggregate computation: a function over an input expression
/// (`expr == nullptr` means COUNT(*)).
struct AggSpec {
  AggFn fn;
  std::unique_ptr<Scalar> expr;
  std::string name;
};

/// One 8-byte word of a group's aggregation state: the group's row count
/// or one double of a state's running value.
union AggWord {
  int64_t count;
  double value;
};

/// Where each aggregation state keeps its running value in a group's row of
/// AggWords, so a group carries only what its functions need. Word 0
/// counts the group's rows, which is all COUNT reads; then every SUM and
/// AVG state's (sum, comp) pair, side by side; then one value per MIN and
/// MAX. A state is one function over one input: the operator gives SUM and
/// AVG over the same input one SUM state, and a layout built from
/// aggregates gives each its own.
///
/// Sums keep Neumaier's compensation: every addition adds its exact
/// rounding error (TwoSum) to `comp`, and merging a partial adds its sum
/// and then its compensation, so no merge loses an error. The compensated
/// total is then the same for any order in which partials merge, short of
/// extreme cancellation — scheduling must not change query results.
class AggLayout {
 public:
  AggLayout() = default;
  /// One state per entry of `fns`.
  explicit AggLayout(const std::vector<AggFn>& fns);
  /// One state per aggregate (their inputs are not read).
  explicit AggLayout(const std::vector<AggSpec>& aggs);

  /// Words per group, the row count included.
  size_t words() const { return init_.size(); }
  size_t bytes() const { return words() * sizeof(AggWord); }
  /// The (sum, comp) pairs: SUM and AVG states.
  size_t sums() const { return sum_states_.size(); }
  /// The first word of state `s` (0, the row count, for COUNT).
  uint32_t offset(size_t s) const { return offsets_[s]; }
  /// A fresh group's state: zero counts and sums, MIN/MAX sentinels.
  const AggWord* init() const { return init_.data(); }

  /// Adds `v` to the (sum, comp) pair at `sum`.
  static void Add(AggWord* sum, double v) {
    const double s = sum[0].value;
    const double t = s + v;
    sum[1].value += std::fabs(s) >= std::fabs(v) ? (s - t) + v : (v - t) + s;
    sum[0].value = t;
  }
  /// The compensated sum of the pair at `sum`.
  static double Total(const AggWord* sum) {
    return sum[0].value + sum[1].value;
  }

  /// Folds group state `src` into `dst`.
  void Merge(AggWord* dst, const AggWord* src) const;

  /// Adds a batch of `n` rows to the state rows at `states` (words() per
  /// group): row i belongs to group `groups[i]`, and `inputs[s][i]` is its
  /// input to state `s` (`inputs[s]` is unused for COUNT). Every group
  /// sees its rows in row order, so the state words come out the same as
  /// from Add applied row by row. A batch of one group runs UpdateGroup,
  /// any other UpdateScatter.
  void Update(const uint32_t* groups, uint32_t n, const double* const* inputs,
              AggWord* states) const;
  /// Visits each row's state row once to count the row and add all its
  /// sums (up to eight per pass), then once more for its MIN and MAX. When
  /// a group's rows follow each other, each update waits for the group's
  /// previous store to the same words, but the chains of different sums
  /// overlap.
  void UpdateScatter(const uint32_t* groups, uint32_t n,
                     const double* const* inputs, AggWord* states) const;
  /// Adds rows [0, n) to the one group whose state row is `state`, with the
  /// state in registers and up to four sums side by side.
  void UpdateGroup(AggWord* state, uint32_t n,
                   const double* const* inputs) const;

  /// Writes `fn` over state `s` of a group to `out`: an INT64 for COUNT, a
  /// DOUBLE otherwise (AVG divides the SUM state by the row count). Every
  /// function of a group without rows (only a scalar aggregate has one)
  /// is 0.
  void WriteResult(AggFn fn, size_t s, const AggWord* state,
                   std::byte* out) const;

 private:
  std::vector<AggFn> fns_;
  std::vector<uint32_t> offsets_;
  std::vector<AggWord> init_;
  std::vector<uint32_t> sum_states_;     // SUM and AVG, in word order
  std::vector<uint32_t> minmax_states_;  // MIN and MAX
};

/// Composite group key: up to 3 widened column words (unused words are 0).
using GroupKey = std::array<uint64_t, 3>;

/// A flat open-addressing table of groups. Keys, hashes and state rows
/// (AggLayout::words() per group) live in dense arrays indexed by group
/// number, in insertion order; a power-of-two array of (hash tag,
/// group + 1) slots resolves lookups by linear probing at a load factor of
/// at most 1/2. The arrays grow together, at every doubling of the slot
/// array, to exactly the groups the slots admit; a table given a tracker
/// charges each growth to MemoryCategory::kAggregation, sized by
/// MemoryModel::AggregationBytes, and releases it when destroyed. Reset()
/// keeps every allocation, so a per-thread partial is reused by work order
/// after work order without touching the allocator.
class GroupTable {
 public:
  explicit GroupTable(MemoryTracker* tracker = nullptr) : tracker_(tracker) {}
  ~GroupTable();
  UOT_DISALLOW_COPY_AND_ASSIGN(GroupTable);

  /// Mixes a key into 64 bits: the top bits pick the result partition,
  /// the low bits the slot, the high word is the slot's tag.
  static uint64_t Hash(const GroupKey& key) {
    uint64_t h = key[0] * 0x9E3779B97F4A7C15ULL;
    h = (h ^ (h >> 32) ^ key[1]) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 29) ^ key[2]) * 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
  }

  /// Drops every group; new groups start from `layout`'s fresh state.
  void Reset(const AggLayout& layout);

  uint32_t size() const { return static_cast<uint32_t>(hashes_.size()); }

  /// Index of `key`'s group, inserting the group with a fresh state (and
  /// setting `*inserted`, if given) when the key is new.
  uint32_t FindOrInsert(const GroupKey& key, uint64_t hash,
                        bool* inserted = nullptr) {
    if (slots_.size() < 2 * (hashes_.size() + 1)) Grow();
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      Slot& slot = slots_[pos];
      if (slot.group_plus_one == 0) {
        const uint32_t group = size();
        slot = Slot{tag, group + 1};
        keys_.push_back(key);
        hashes_.push_back(hash);
        states_.insert(states_.end(), init_.begin(), init_.end());
        if (inserted != nullptr) *inserted = true;
        return group;
      }
      if (slot.tag == tag && keys_[slot.group_plus_one - 1] == key) {
        if (inserted != nullptr) *inserted = false;
        return slot.group_plus_one - 1;
      }
    }
  }

  const GroupKey& key(uint32_t group) const { return keys_[group]; }
  uint64_t hash(uint32_t group) const { return hashes_[group]; }
  /// The state row of `group`; pointers stay valid until the next insert.
  AggWord* states(uint32_t group) {
    return states_.data() + static_cast<size_t>(group) * init_.size();
  }
  const AggWord* states(uint32_t group) const {
    return states_.data() + static_cast<size_t>(group) * init_.size();
  }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t group_plus_one = 0;  // 0 = empty
  };

  /// Doubles the slot array (64 slots at first), re-slots every group and
  /// grows the group arrays to the slots' capacity.
  void Grow();

  MemoryTracker* const tracker_;
  uint64_t charged_bytes_ = 0;
  std::vector<AggWord> init_;
  std::vector<GroupKey> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<AggWord> states_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

/// Grouped (or scalar) aggregation with an optional fused filter
/// predicate, so plans like TPC-H Q1/Q6 are a single leaf operator on the
/// base table — matching the paper's Fig. 3 observation that those queries
/// are dominated by one leaf operator.
///
/// The groups live in one of two layouts, picked before the first work
/// order by MemoryModel::AggregationBytes:
///  - dense: the input is a base table and the key tuple (0-3 keys) is
///    narrow: the ranges of its widened key words multiply to at most
///    2^32 groups (a scalar aggregate is one group). A group's index is
///    mixed-radix, sum over keys of (word_k - min_k) * stride_k. Each
///    worker that runs a work order owns a state array indexed by it for
///    the whole operator, so work orders hash nothing and merge nothing;
///    Finish() adds the worker arrays element by element and decodes the
///    keys of the groups that were seen;
///  - hash: each work order aggregates one input block into its worker
///    thread's reusable partial GroupTable and merges it into the shared
///    result. The result is split into kNumPartitions partitions by the top
///    hash bits, each with its own lock and table, so concurrent merges
///    only contend on the partitions they share. Finish() materializes
///    every partition's groups.
/// A fused pipeline's aggregate tail (a streamed input, so always the hash
/// layout) runs the same Accumulate kernel into one partial per fused work
/// order. Dense arrays and result partitions are charged to the tracker's
/// kAggregation category and released by Finish(); thread partials hold
/// at most one block's groups and stay uncharged. The constructor compiles
/// the aggregates' inputs into one DoubleProgram and gives the layout one
/// state per distinct function and input, so SUM and AVG over one input
/// share a (sum, comp) pair.
class AggregateOperator final : public Operator {
 public:
  static constexpr int kPartitionBits = 6;
  static constexpr size_t kNumPartitions = size_t{1} << kPartitionBits;

  /// `group_cols` (0-3 columns, integral or CHAR<=8) may be empty for
  /// scalar aggregation. `input_schema` is the schema of the streamed or
  /// attached input. `tracker` (may be null) is charged for group state.
  AggregateOperator(std::string name, const Schema& input_schema,
                    std::vector<int> group_cols, std::vector<AggSpec> aggs,
                    std::unique_ptr<Predicate> predicate,
                    InsertDestination* destination, MemoryTracker* tracker);
  ~AggregateOperator() override;

  void AttachBaseTable(const Table* table) {
    base_table_ = table;
    input_.AttachTable(table);
  }

  void BindExecContext(const OperatorExecContext& ctx) override {
    num_workers_ = ctx.num_workers;
  }
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

  const AggLayout& layout() const { return layout_; }
  /// True once the dense layout is chosen (decided by the first
  /// GenerateWorkOrders call).
  bool dense() const { return dense_range_ != 0; }

  /// Aggregates `block` on worker `worker`: into the worker's dense array,
  /// or into the thread's partial, which is then merged.
  void ExecuteBlock(const Block& block, int worker);

  /// The calling thread's partial table, emptied and shaped for this
  /// operator. A work order accumulates into it and merges it before the
  /// next work order on the same thread asks for it again.
  GroupTable* ThreadPartial() const;

  /// The aggregation kernel: removes the rows of `sel` (sorted row indices
  /// of `block`) that fail the optional predicate, then accumulates the
  /// survivors into `partial`.
  void Accumulate(const Block& block, std::vector<uint32_t>* sel,
                  GroupTable* partial) const;

  /// Merges a work order's partial result (called from worker threads):
  /// buckets its groups by partition, then locks one partition at a time.
  void MergePartial(const GroupTable& partial);

 private:
  /// One hash partition of the result; aligned so neighbouring locks do
  /// not share a cache line.
  struct alignas(64) Partition {
    std::mutex mutex;
    std::unique_ptr<GroupTable> table;  // allocated on first insert
  };

  /// Picks the dense layout when the input is a base table, every group
  /// key's word range is known, and the footprint rule allows it.
  void ChooseLayout();

  /// Adds the rows[0..n) of `block` into the state rows `states` (a group
  /// table's or a dense array), row i into group `groups[i]`. Each
  /// distinct node of the aggregates' inputs is evaluated once.
  void UpdateStates(const Block& block, const uint32_t* rows, uint32_t n,
                    const uint32_t* groups, AggWord* states) const;

  /// Worker `worker`'s dense array, allocated (and charged) on first use.
  AggWord* DenseArray(int worker);

  /// Releases every dense array and result partition.
  void ReleaseGroups();

  const Schema input_schema_;
  const std::vector<int> group_cols_;
  const std::vector<AggSpec> aggs_;
  const std::unique_ptr<Predicate> predicate_;
  InsertDestination* const destination_;
  MemoryTracker* const tracker_;
  // The aggregates' inputs as one program of distinct nodes; the layout's
  // states, each with its input's node (-1 for COUNT); and each
  // aggregate's state. Set by the constructor.
  DoubleProgram inputs_;
  std::vector<int> state_input_;
  std::vector<uint32_t> state_of_;
  AggLayout layout_;

  StreamingInput input_;
  const Table* base_table_ = nullptr;
  int num_workers_ = 1;
  bool layout_chosen_ = false;

  // Dense layout (dense_range_ != 0): group key k has dense_key_range_[k]
  // words from dense_min_[k]; sum over k of (word_k - dense_min_[k]) *
  // dense_stride_[k] indexes each worker's array of dense_range_ groups.
  std::array<uint64_t, 3> dense_min_{};
  std::array<uint64_t, 3> dense_key_range_{};
  std::array<uint32_t, 3> dense_stride_{};
  uint64_t dense_range_ = 0;
  uint64_t dense_array_bytes_ = 0;
  std::vector<std::unique_ptr<AggWord[]>> dense_arrays_;

  std::array<Partition, kNumPartitions> partitions_;
};

/// Aggregates one input block.
class AggregateWorkOrder final : public WorkOrder {
 public:
  AggregateWorkOrder(const Block* block, AggregateOperator* op)
      : block_(block), op_(op) {}

  void Execute() override { op_->ExecuteBlock(*block_, worker_id); }

 private:
  const Block* const block_;
  AggregateOperator* const op_;
};

}  // namespace uot

#endif  // UOT_OPERATORS_AGGREGATE_OPERATOR_H_

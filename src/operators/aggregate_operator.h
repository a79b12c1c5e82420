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
/// Sums keep Neumaier's compensation: every addition adds its exact
/// rounding error (TwoSum) to `comp`, and merging a partial adds its sum
/// and then its compensation, so no merge loses an error. Total() is then
/// the same for any order in which work orders' partials merge, short of
/// extreme cancellation — scheduling must not change query results.
struct AggState {
  double sum = 0.0;
  double comp = 0.0;  // accumulated rounding error of `sum`
  int64_t count = 0;
  double min = 1e308;
  double max = -1e308;

  void Add(double v) {
    const double t = sum + v;
    comp += std::fabs(sum) >= std::fabs(v) ? (sum - t) + v : (v - t) + sum;
    sum = t;
  }

  void Merge(const AggState& other) {
    Add(other.sum);
    comp += other.comp;
    count += other.count;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }

  /// The compensated sum.
  double Total() const { return sum + comp; }
};

/// Composite group key: up to 3 widened column words (unused words are 0).
using GroupKey = std::array<uint64_t, 3>;

/// A flat open-addressing table of groups. Keys, hashes and AggState rows
/// (`num_aggs` per group) live in dense arrays indexed by group number, in
/// insertion order; a power-of-two array of (hash tag, group + 1) slots
/// resolves lookups by linear probing at a load factor of at most 1/2.
/// Reset() keeps every allocation, so a per-thread partial is reused by
/// work order after work order without touching the allocator.
class GroupTable {
 public:
  /// Mixes a key into 64 bits: the top bits pick the result partition,
  /// the low bits the slot, the high word is the slot's tag.
  static uint64_t Hash(const GroupKey& key) {
    uint64_t h = key[0] * 0x9E3779B97F4A7C15ULL;
    h = (h ^ (h >> 32) ^ key[1]) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 29) ^ key[2]) * 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
  }

  /// Drops every group and sets the number of AggStates per group.
  void Reset(size_t num_aggs);

  uint32_t size() const { return static_cast<uint32_t>(hashes_.size()); }

  /// Index of `key`'s group, inserting the group with fresh states (and
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
        states_.resize(states_.size() + num_aggs_);
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
  /// The `num_aggs` states of `group`; pointers stay valid until the next
  /// insert.
  AggState* states(uint32_t group) {
    return states_.data() + static_cast<size_t>(group) * num_aggs_;
  }
  const AggState* states(uint32_t group) const {
    return states_.data() + static_cast<size_t>(group) * num_aggs_;
  }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t group_plus_one = 0;  // 0 = empty
  };

  /// Doubles the slot array (64 slots at first) and re-slots every group.
  void Grow();

  size_t num_aggs_ = 0;
  std::vector<GroupKey> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<AggState> states_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

/// Hash-based (optionally grouped) aggregation with an optional fused
/// filter predicate, so plans like TPC-H Q1/Q6 are a single leaf operator
/// on the base table — matching the paper's Fig. 3 observation that those
/// queries are dominated by one leaf operator.
///
/// Each work order aggregates one input block into its worker thread's
/// reusable partial GroupTable and merges it into the shared result. The
/// result is split into kNumPartitions partitions by the top hash bits,
/// each with its own lock and table, so concurrent merges only contend on
/// the partitions they share. Finish() materializes every partition's
/// groups into the output destination. A fused pipeline runs the same
/// accumulation (Accumulate) into one partial per fused work order.
class AggregateOperator final : public Operator {
 public:
  static constexpr int kPartitionBits = 6;
  static constexpr size_t kNumPartitions = size_t{1} << kPartitionBits;

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

  const Schema input_schema_;
  const std::vector<int> group_cols_;
  const std::vector<AggSpec> aggs_;
  const std::unique_ptr<Predicate> predicate_;
  InsertDestination* const destination_;

  StreamingInput input_;

  std::array<Partition, kNumPartitions> partitions_;
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

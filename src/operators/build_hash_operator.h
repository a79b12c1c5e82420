#ifndef UOT_OPERATORS_BUILD_HASH_OPERATOR_H_
#define UOT_OPERATORS_BUILD_HASH_OPERATOR_H_

#include <memory>
#include <vector>

#include "join/hash_table.h"
#include "join/lip_filter.h"
#include "join/partitioned_hash_table.h"
#include "operators/operator.h"

namespace uot {

/// Builds the join hash table (paper Section III): one shared table at
/// `radix_bits == 0`, or `2^radix_bits` disjoint partition sub-tables when
/// the build input arrives through an exchange edge (blocks tagged with
/// their partition). Partitioned builds insert into per-partition tables
/// with no shared cache lines, and each probe touches only its block's
/// sub-table.
///
/// The table is presized from the input cardinality (per partition, when
/// partitioned — the exchange tags make exact counts available), so work
/// orders are generated once the input is complete (for base-table inputs
/// that is immediately); the builds themselves then run in parallel, one
/// work order per input block. An unpartitioned build on one integral key
/// also passes the key range, so the table can take its dense layout.
class BuildHashOperator final : public Operator {
 public:
  /// `key_cols`/`payload_cols` index the build input's schema.
  /// `radix_bits > 0` requires the input blocks to carry partition tags
  /// (i.e. to come through an ExchangeOperator keyed on the same columns).
  BuildHashOperator(std::string name, std::vector<int> key_cols,
                    std::vector<int> payload_cols, double load_factor,
                    MemoryTracker* tracker, int radix_bits = 0);

  /// Binds the input to a materialized base table (instead of a stream).
  void AttachBaseTable(const Table* table) {
    base_table_ = table;
    input_.AttachTable(table);
  }

  void BindExecContext(const OperatorExecContext& ctx) override {
    exec_ctx_ = ctx;
  }

  void ReceiveInputBlocks(int input_index,
                          const std::vector<Block*>& blocks) override;
  void InputDone(int input_index) override;
  bool GenerateWorkOrders(
      std::vector<std::unique_ptr<WorkOrder>>* out) override;

  /// The partition-0 sub-table — at radix_bits 0 (one partition) this IS
  /// the whole table, preserving the pre-partitioning interface; callers
  /// that only need the payload schema may use it at any radix.
  JoinHashTable* hash_table() {
    return tables_ != nullptr ? tables_->sub_table(0) : nullptr;
  }
  const JoinHashTable* hash_table() const {
    return tables_ != nullptr ? tables_->sub_table(0) : nullptr;
  }

  /// All partition sub-tables (nullptr before InitHashTable).
  const PartitionedJoinHashTable* partitioned_table() const {
    return tables_.get();
  }

  /// The sub-table `block`'s rows belong to: the whole table at radix 0,
  /// otherwise the sub-table of the block's partition tag (the block must
  /// be tagged — partitioned builds/probes require exchanged input).
  const JoinHashTable* table_for_block(const Block* block) const;

  int radix_bits() const { return radix_bits_; }
  const std::vector<int>& key_cols() const { return key_cols_; }

  /// Also populate a LIP Bloom filter over the (mixed) join keys, for
  /// probe-side selection pruning (paper Section VI-C). Call before
  /// execution starts.
  void EnableLipFilter(int bits_per_entry = 8) {
    lip_bits_per_entry_ = bits_per_entry;
  }

  /// Valid after this operator finished (guaranteed by a blocking edge);
  /// nullptr when LIP was not enabled.
  const LipFilter* lip_filter() const { return lip_filter_.get(); }

  /// Creates the hash-table object once the input schema is known (called
  /// lazily at first block delivery, or explicitly by plan builders that
  /// know the schema upfront).
  void InitHashTable(const Schema& input_schema);

 private:
  const std::vector<int> key_cols_;
  const std::vector<int> payload_cols_;
  const double load_factor_;
  MemoryTracker* const tracker_;
  const int radix_bits_;

  StreamingInput input_;
  const Table* base_table_ = nullptr;  // set when the input is a base table
  std::vector<Block*> buffered_;
  std::unique_ptr<PartitionedJoinHashTable> tables_;
  int lip_bits_per_entry_ = 0;  // 0 = LIP disabled
  std::unique_ptr<LipFilter> lip_filter_;
  bool generated_ = false;
  OperatorExecContext exec_ctx_;  // defaults until the scheduler binds one
};

/// Inserts one block's rows into its hash (sub-)table via the batched
/// extract -> hash+prefetch -> insert pipeline.
class BuildHashWorkOrder final : public WorkOrder {
 public:
  BuildHashWorkOrder(const Block* block, const std::vector<int>* key_cols,
                     const std::vector<int>* payload_cols,
                     JoinHashTable* hash_table, LipFilter* lip_filter,
                     const OperatorExecContext* ctx)
      : block_(block),
        key_cols_(key_cols),
        payload_cols_(payload_cols),
        hash_table_(hash_table),
        lip_filter_(lip_filter),
        ctx_(ctx) {}

  void Execute() override;

 private:
  const Block* const block_;
  const std::vector<int>* const key_cols_;
  const std::vector<int>* const payload_cols_;
  JoinHashTable* const hash_table_;
  LipFilter* const lip_filter_;  // may be null
  const OperatorExecContext* const ctx_;
};

}  // namespace uot

#endif  // UOT_OPERATORS_BUILD_HASH_OPERATOR_H_

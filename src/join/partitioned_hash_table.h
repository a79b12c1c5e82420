#ifndef UOT_JOIN_PARTITIONED_HASH_TABLE_H_
#define UOT_JOIN_PARTITIONED_HASH_TABLE_H_

#include <memory>
#include <vector>

#include "join/hash_table.h"
#include "join/partition_kernel.h"

namespace uot {

/// The partitioned variant of the join hash table: `2^radix_bits` disjoint
/// JoinHashTable sub-tables, one per hash partition (the morsel-style
/// alternative to the paper's single shared table).
///
/// Each sub-table is built and probed only with keys whose mixed hash falls
/// in its partition (PartitionBatch), so build work orders of different
/// partitions share no cache lines and take no CAS contention, and a
/// sub-table sized to fit L3 keeps its probes cache-resident even when the
/// combined table would not.
///
/// The sub-tables are plain JoinHashTables — the batched build/probe
/// kernels run unmodified against them, which is what makes the
/// partitioned path byte-parity equivalent to the unpartitioned one.
class PartitionedJoinHashTable {
 public:
  /// Creates the `2^radix_bits` empty sub-tables (radix_bits in
  /// [0, kMaxRadixBits]; 0 degenerates to one sub-table, the unpartitioned
  /// shape). Sub-tables are sized later via ReservePartitions.
  PartitionedJoinHashTable(Schema payload_schema, int num_key_cols,
                           double load_factor, int radix_bits,
                           MemoryTracker* tracker);
  UOT_DISALLOW_COPY_AND_ASSIGN(PartitionedJoinHashTable);

  /// Sizes sub-table `p` for `counts[p]` inserts, in the hash layout.
  /// `counts` must have exactly num_partitions() entries; exact
  /// per-partition counts are available because builds start only once
  /// their (exchanged) input is complete. Empty partitions get a minimal
  /// table probes see as empty.
  void ReservePartitions(const std::vector<uint64_t>& counts);

  JoinHashTable* sub_table(uint32_t partition) {
    UOT_DCHECK(partition < sub_tables_.size());
    return sub_tables_[partition].get();
  }
  const JoinHashTable* sub_table(uint32_t partition) const {
    UOT_DCHECK(partition < sub_tables_.size());
    return sub_tables_[partition].get();
  }

  int radix_bits() const { return radix_bits_; }
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(sub_tables_.size());
  }
  const Schema& payload_schema() const {
    return sub_tables_.front()->payload_schema();
  }
  int num_key_cols() const { return sub_tables_.front()->num_key_cols(); }

  /// Entries across all sub-tables.
  uint64_t size() const;
  /// Slot + tag bytes across all sub-tables.
  size_t allocated_bytes() const;

 private:
  const int radix_bits_;
  std::vector<std::unique_ptr<JoinHashTable>> sub_tables_;
};

}  // namespace uot

#endif  // UOT_JOIN_PARTITIONED_HASH_TABLE_H_

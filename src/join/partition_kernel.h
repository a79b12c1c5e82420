#ifndef UOT_JOIN_PARTITION_KERNEL_H_
#define UOT_JOIN_PARTITION_KERNEL_H_

#include <cstdint>

#include "join/hash_table.h"
#include "util/macros.h"

namespace uot {

/// Radix partitioning for the partitioned hash join: partition ids come
/// from the TOP `radix_bits` bits of the mixed join-key hash, while
/// JoinHashTable derives its slot index from the LOW bits (hash & mask).
/// The bit ranges are independent, so restricting a sub-table to one
/// partition does not skew its slot distribution.
constexpr int kMaxRadixBits = 16;

/// Number of partitions at `radix_bits` (1 for the unpartitioned case).
inline uint32_t NumPartitions(int radix_bits) {
  UOT_DCHECK(radix_bits >= 0 && radix_bits <= kMaxRadixBits);
  return uint32_t{1} << radix_bits;
}

/// Partition id of one already-mixed join-key hash.
inline uint32_t PartitionOfHash(uint64_t hash, int radix_bits) {
  if (radix_bits == 0) return 0;  // shifting by 64 is undefined
  return static_cast<uint32_t>(hash >> (64 - radix_bits));
}

/// Batched partition stage of the exchange kernel: hashes `n` widened keys
/// (packed at stride `words`, as produced by ExtractKeys) and writes each
/// row's partition id to `out[i]`. The hash mix is the same one the
/// build/probe kernels apply, so both sides of a join land matching keys in
/// matching partitions.
inline void PartitionBatch(const uint64_t* keys, uint32_t n, int words,
                           int radix_bits, uint32_t* out) {
  if (words == 1) {
    for (uint32_t i = 0; i < n; ++i) {
      out[i] = PartitionOfHash(HashJoinKey(&keys[i], 1), radix_bits);
    }
    return;
  }
  for (uint32_t i = 0; i < n; ++i) {
    out[i] = PartitionOfHash(
        HashJoinKey(&keys[static_cast<size_t>(i) * 2], 2), radix_bits);
  }
}

}  // namespace uot

#endif  // UOT_JOIN_PARTITION_KERNEL_H_

#ifndef UOT_JOIN_HASH_TABLE_H_
#define UOT_JOIN_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "types/schema.h"
#include "util/macros.h"
#include "util/memory_tracker.h"

namespace uot {

/// Mixes a composite key (1 or 2 widened 64-bit words) into a hash.
inline uint64_t HashJoinKey(const uint64_t* key, int words) {
  uint64_t h = key[0] + 0x9E3779B97F4A7C15ULL;
  if (words == 2) h ^= key[1] * 0xC2B2AE3D27D4EB4FULL;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

/// One probe hit produced by JoinHashTable::ProbeBatch: the batch-relative
/// row of the probe key and the matching entry's payload.
struct JoinMatch {
  uint32_t row;              // index into the probed key batch [0, n)
  const std::byte* payload;  // packed payload_schema tuple in the table
};

/// A non-partitioned join table (paper Section III): one shared table
/// built concurrently by all build work orders, probed read-only
/// afterwards. It has two layouts, picked once by Reserve:
///
///  - **Hash** (any key): the paper's Section VI-B layout. Fixed-size
///    buckets of `slot_bytes()` (= c) in an open-addressed array sized so
///    that the occupancy never exceeds `load_factor` (= f), so the
///    footprint per entry is c/f. Duplicate keys are supported
///    (linear-probe multimap).
///  - **Dense** (a single integral key over a narrow range): a `heads`
///    array of 32-bit chain heads indexed by `key - min`, and per-entry
///    payloads plus 32-bit `next` links. No hashing, stored keys, tags or
///    probe walks: an insert prepends its row to its key's chain.
///
/// Concurrency: InsertBatch is thread-safe. Hash layout: per-slot CAS claim,
/// release-store publish. Dense layout: each batch claims its entry range
/// with one `fetch_add` on the entry count and prepends each row with one
/// atomic `exchange` on its head; a row's `next` link is written only by
/// the thread that claimed it. ProbeBatch must only run after all inserts
/// are complete, which the scheduler guarantees via the blocking
/// build->probe dependency.
class JoinHashTable {
 public:
  /// `num_key_cols` is 1 or 2; payload rows are packed `payload_schema`
  /// tuples carried alongside the key.
  JoinHashTable(Schema payload_schema, int num_key_cols, double load_factor,
                MemoryTracker* tracker);
  ~JoinHashTable();
  UOT_DISALLOW_COPY_AND_ASSIGN(JoinHashTable);

  /// Sizes the hash layout for `num_entries` inserts. Reserve (either
  /// overload) must be called exactly once, before any InsertBatch.
  void Reserve(uint64_t num_entries);

  /// Sizes the table for `num_entries` inserts of a single-word key whose
  /// build values, read as signed widened words, all lie in
  /// [`min_key`, `max_key`]. Picks the dense layout when
  /// MemoryModel::JoinTableBytes finds it no larger than the hash layout,
  /// and the hash layout otherwise.
  void Reserve(uint64_t num_entries, int64_t min_key, int64_t max_key);

  /// Batched insert of `n` keys (packed at stride `num_key_cols` words)
  /// with `n` packed payloads (stride `payload_schema().row_width()`).
  /// Hash layout: hashes the whole batch first, software-prefetches home
  /// slots `prefetch_distance` keys ahead of the inserting key, then claims
  /// slots in batch order; `hash_scratch` (caller-owned, so repeated calls
  /// allocate nothing) holds the batch hashes on return (LIP filters reuse
  /// them). Dense layout: copies the payloads in one block, prefetches
  /// heads ahead the same way, and leaves `hash_scratch` untouched.
  /// Thread-safe. CHECK-fails if Reserve was too small (or, dense, a key
  /// lies outside the reserved range). Returns the number of prefetches
  /// issued.
  uint64_t InsertBatch(const uint64_t* keys, const std::byte* payloads,
                       uint32_t n, int prefetch_distance,
                       std::vector<uint64_t>* hash_scratch);

  /// Batched probe of `n` keys (packed at stride `num_key_cols` words):
  /// issues home-slot (hash) or head (dense) prefetches
  /// `prefetch_distance` keys ahead of the resolving key (group
  /// prefetching — the batch's independent memory accesses overlap instead
  /// of serializing on one dependent miss per tuple), then appends every
  /// match to `matches`. Matches are grouped by probe row in ascending row
  /// order with chain order preserved inside a row, so the result does not
  /// depend on the batch size or prefetch distance. Batches below
  /// JoinKernelConfig::kMinRowsForPrefetch (or `prefetch_distance` <= 0)
  /// resolve without prefetching. `hash_scratch` is caller-owned scratch.
  /// Returns the number of prefetches issued.
  uint64_t ProbeBatch(const uint64_t* keys, uint32_t n, int prefetch_distance,
                      std::vector<uint64_t>* hash_scratch,
                      std::vector<JoinMatch>* matches) const;

  const Schema& payload_schema() const { return payload_schema_; }
  int num_key_cols() const { return num_key_cols_; }
  double load_factor() const { return load_factor_; }
  /// True once Reserve picked the direct-indexed layout.
  bool dense() const { return heads_ != nullptr; }

  uint64_t size() const {
    return num_entries_.load(std::memory_order_relaxed);
  }
  /// Hash buckets, or chain heads (the key range) in the dense layout.
  uint64_t num_slots() const { return num_slots_; }
  /// Bytes per hash bucket (the model's `c`): key words + payload.
  size_t slot_bytes() const { return slot_stride_; }
  /// Total bytes of the chosen layout's arrays.
  size_t allocated_bytes() const { return allocated_bytes_; }

 private:
  std::byte* SlotPtr(uint64_t idx) {
    return slots_.get() + idx * slot_stride_;
  }
  const std::byte* SlotPtr(uint64_t idx) const {
    return slots_.get() + idx * slot_stride_;
  }

  /// Warms the tag byte and the slot's first line for an upcoming probe or
  /// insert of the slot at `idx`.
  void PrefetchSlot(uint64_t idx) const {
    UOT_PREFETCH_READ(&tags_[idx]);
    UOT_PREFETCH_READ(SlotPtr(idx));
  }

  /// Allocates the arrays of the layout `Reserve` chose.
  void Allocate(bool dense, uint64_t slots, uint64_t bytes,
                uint64_t num_entries);

  /// Dense-layout halves of InsertBatch and ProbeBatch.
  uint64_t InsertDense(const uint64_t* keys, const std::byte* payloads,
                       uint32_t n, uint32_t dist);
  uint64_t ProbeDense(const uint64_t* keys, uint32_t n, uint32_t dist,
                      std::vector<JoinMatch>* matches) const;

  /// One claim-and-publish insert starting the linear probe at the slot
  /// for `hash` (hash layout).
  void InsertWithHash(const uint64_t* key, uint64_t hash,
                      const std::byte* payload);

  const Schema payload_schema_;
  const int num_key_cols_;
  const double load_factor_;
  MemoryTracker* const tracker_;

  size_t slot_stride_ = 0;
  uint64_t num_slots_ = 0;
  size_t allocated_bytes_ = 0;
  std::atomic<uint64_t> num_entries_{0};

  // Hash layout.
  std::unique_ptr<std::byte[]> slots_;
  std::unique_ptr<std::atomic<uint8_t>[]> tags_;

  // Dense layout: heads_[key - key_min_] is 1 + the chain's first entry
  // (0 = empty); next_[e] likewise links entry e to the one before it.
  uint64_t key_min_ = 0;  // the signed minimum key, as a widened word
  uint64_t capacity_ = 0;  // entries reserved
  std::unique_ptr<std::atomic<uint32_t>[]> heads_;
  std::unique_ptr<uint32_t[]> next_;
  std::unique_ptr<std::byte[]> payloads_;
};

}  // namespace uot

#endif  // UOT_JOIN_HASH_TABLE_H_

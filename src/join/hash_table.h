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
  const std::byte* payload;  // packed payload_schema tuple in the slot
};

/// A non-partitioned hash table for hash joins (paper Section III):
/// one shared table built concurrently by all build work orders, probed
/// read-only afterwards.
///
/// Layout matches the paper's Section VI-B memory model: fixed-size buckets
/// of `slot_bytes()` (= c) in an open-addressed array sized so that the
/// occupancy never exceeds `load_factor` (= f); the footprint per entry is
/// therefore c/f. Duplicate keys are supported (linear-probe multimap).
///
/// Concurrency: `Insert` is thread-safe (per-slot CAS claim, release-store
/// publish). `Probe` must only run after all inserts are complete, which the
/// scheduler guarantees via the blocking build->probe dependency. The
/// per-row insert path writes only the slot it claims; the shared entry
/// count is bumped once per call (`n` per `InsertBatch`), so concurrent
/// builders do not bounce a shared cache line on every row.
class JoinHashTable {
 public:
  /// `num_key_cols` is 1 or 2; payload rows are packed `payload_schema`
  /// tuples carried alongside the key.
  JoinHashTable(Schema payload_schema, int num_key_cols, double load_factor,
                MemoryTracker* tracker);
  ~JoinHashTable();
  UOT_DISALLOW_COPY_AND_ASSIGN(JoinHashTable);

  /// Sizes the table for `num_entries` inserts. Must be called once before
  /// any Insert.
  void Reserve(uint64_t num_entries);

  /// Inserts a key (array of `num_key_cols` widened words) with its packed
  /// payload. Thread-safe. CHECK-fails if Reserve was too small.
  void Insert(const uint64_t* key, const std::byte* payload);

  /// Batched insert of `n` keys (packed at stride `num_key_cols` words)
  /// with `n` packed payloads (stride `payload_schema().row_width()`).
  /// Hashes the whole batch first, software-prefetches home slots
  /// `prefetch_distance` keys ahead of the inserting key, then claims
  /// slots in batch order — equivalent to calling Insert per row.
  /// `hash_scratch` is caller-owned so repeated calls allocate nothing;
  /// it holds the batch hashes on return (LIP filters reuse them).
  /// Thread-safe. Returns the number of prefetches issued.
  uint64_t InsertBatch(const uint64_t* keys, const std::byte* payloads,
                       uint32_t n, int prefetch_distance,
                       std::vector<uint64_t>* hash_scratch);

  /// Invokes `fn(payload_ptr)` for every entry whose key equals `key`.
  template <typename Fn>
  void Probe(const uint64_t* key, Fn&& fn) const {
    const uint64_t mask = num_slots_ - 1;
    uint64_t idx = HashJoinKey(key, num_key_cols_) & mask;
    while (true) {
      const uint8_t tag = tags_[idx].load(std::memory_order_acquire);
      if (tag == 0) return;  // empty slot terminates the probe chain
      if (tag == 2) {
        const std::byte* slot = SlotPtr(idx);
        const uint64_t* slot_key = reinterpret_cast<const uint64_t*>(slot);
        bool match = slot_key[0] == key[0];
        if (num_key_cols_ == 2) match = match && slot_key[1] == key[1];
        if (match) fn(slot + static_cast<size_t>(num_key_cols_) * 8);
      }
      idx = (idx + 1) & mask;
    }
  }

  /// Batched probe of `n` keys (packed at stride `num_key_cols` words):
  /// computes all hashes, issues home-slot prefetches `prefetch_distance`
  /// keys ahead of the resolving key (group prefetching — the batch's
  /// independent memory accesses overlap instead of serializing on one
  /// dependent miss per tuple), then appends every match to `matches`.
  /// Matches are grouped by probe row in ascending row order with chain
  /// order preserved inside a row — exactly the order per-row Probe calls
  /// would observe, so scalar and batched probes are byte-parity
  /// equivalent. Batches below JoinKernelConfig::kMinRowsForPrefetch (or
  /// `prefetch_distance` <= 0) resolve without prefetching.
  /// Returns the number of prefetches issued.
  uint64_t ProbeBatch(const uint64_t* keys, uint32_t n, int prefetch_distance,
                      std::vector<uint64_t>* hash_scratch,
                      std::vector<JoinMatch>* matches) const;

  const Schema& payload_schema() const { return payload_schema_; }
  int num_key_cols() const { return num_key_cols_; }
  double load_factor() const { return load_factor_; }

  uint64_t size() const {
    return num_entries_.load(std::memory_order_relaxed);
  }
  uint64_t num_slots() const { return num_slots_; }
  /// Bytes per bucket (the model's `c`): key words + payload.
  size_t slot_bytes() const { return slot_stride_; }
  /// Total bytes of slot + tag storage.
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

  /// One claim-and-publish insert starting the linear probe at the slot
  /// for `hash`; shared by Insert and InsertBatch, which count the entry.
  void InsertWithHash(const uint64_t* key, uint64_t hash,
                      const std::byte* payload);

  const Schema payload_schema_;
  const int num_key_cols_;
  const double load_factor_;
  MemoryTracker* const tracker_;

  size_t slot_stride_ = 0;
  uint64_t num_slots_ = 0;
  size_t allocated_bytes_ = 0;
  std::unique_ptr<std::byte[]> slots_;
  std::unique_ptr<std::atomic<uint8_t>[]> tags_;
  std::atomic<uint64_t> num_entries_{0};
};

}  // namespace uot

#endif  // UOT_JOIN_HASH_TABLE_H_

#include "join/hash_table.h"

#include <cstring>

#include "model/memory_model.h"
#include "obs/trace_session.h"
#include "operators/exec_context.h"

namespace uot {
namespace {

/// The prefetch distance a batch of `n` keys runs at: none when disabled
/// or below JoinKernelConfig::kMinRowsForPrefetch keys.
uint32_t PrefetchDistance(int prefetch_distance, uint32_t n) {
  return (prefetch_distance > 0 && n >= JoinKernelConfig::kMinRowsForPrefetch)
             ? static_cast<uint32_t>(prefetch_distance)
             : 0;
}

}  // namespace

JoinHashTable::JoinHashTable(Schema payload_schema, int num_key_cols,
                             double load_factor, MemoryTracker* tracker)
    : payload_schema_(std::move(payload_schema)),
      num_key_cols_(num_key_cols),
      load_factor_(load_factor),
      tracker_(tracker) {
  UOT_CHECK(num_key_cols_ == 1 || num_key_cols_ == 2);
  UOT_CHECK(load_factor_ > 0.0 && load_factor_ <= 1.0);
  // Round the bucket up to 8 bytes so slot key words stay aligned.
  const size_t raw = static_cast<size_t>(num_key_cols_) * 8 +
                     payload_schema_.row_width();
  slot_stride_ = (raw + 7) & ~size_t{7};
}

JoinHashTable::~JoinHashTable() {
  if (tracker_ != nullptr && allocated_bytes_ > 0) {
    tracker_->Release(MemoryCategory::kHashTable, allocated_bytes_);
  }
}

void JoinHashTable::Reserve(uint64_t num_entries) {
  const MemoryModel::JoinTableFootprint hash = MemoryModel::JoinTableBytes(
      num_entries, /*key_range=*/0, payload_schema_.row_width(),
      slot_stride_, load_factor_);
  Allocate(false, hash.slots, hash.bytes, num_entries);
}

void JoinHashTable::Reserve(uint64_t num_entries, int64_t min_key,
                            int64_t max_key) {
  UOT_CHECK(num_key_cols_ == 1 && min_key <= max_key);
  // Unsigned difference: exact for any signed pair; a span of 2^64 keys
  // wraps to 0, which (like any span past 32 bits) keeps the hash layout.
  const uint64_t range =
      static_cast<uint64_t>(max_key) - static_cast<uint64_t>(min_key) + 1;
  const MemoryModel::JoinTableFootprint footprint =
      MemoryModel::JoinTableBytes(num_entries, range,
                                  payload_schema_.row_width(), slot_stride_,
                                  load_factor_);
  key_min_ = static_cast<uint64_t>(min_key);
  Allocate(footprint.dense, footprint.slots, footprint.bytes, num_entries);
}

void JoinHashTable::Allocate(bool dense, uint64_t slots, uint64_t bytes,
                             uint64_t num_entries) {
  UOT_CHECK(slots_ == nullptr && heads_ == nullptr);  // Reserve is one-shot
  num_slots_ = slots;
  allocated_bytes_ = bytes;
  // Only the arrays whose zero state is meaningful are zeroed: the tags
  // gate every slot read, and the heads end every chain. Slots, links and
  // payloads are written before they are read, so they stay
  // default-initialised (no zeroing pass before the build can start).
  if (dense) {
    capacity_ = num_entries;
    heads_ = std::make_unique<std::atomic<uint32_t>[]>(slots);
    next_ = std::make_unique_for_overwrite<uint32_t[]>(num_entries);
    payloads_ = std::make_unique_for_overwrite<std::byte[]>(
        num_entries * payload_schema_.row_width());
  } else {
    slots_ = std::make_unique_for_overwrite<std::byte[]>(slots * slot_stride_);
    tags_ = std::make_unique<std::atomic<uint8_t>[]>(slots);
  }
  if (tracker_ != nullptr) {
    tracker_->Allocate(MemoryCategory::kHashTable, allocated_bytes_);
    if (obs::TraceSession* trace = tracker_->trace()) {
      const int32_t traced_slots = slots > static_cast<uint64_t>(INT32_MAX)
                                       ? INT32_MAX
                                       : static_cast<int32_t>(slots);
      trace->EmitInstant(obs::TraceEventType::kHashTableReserve, /*tid=*/0,
                         /*arg0=*/dense ? 1 : 0, /*arg1=*/traced_slots,
                         static_cast<int64_t>(allocated_bytes_));
    }
  }
}

void JoinHashTable::InsertWithHash(const uint64_t* key, uint64_t hash,
                                   const std::byte* payload) {
  const uint64_t mask = num_slots_ - 1;
  uint64_t idx = hash & mask;
  for (uint64_t attempts = 0; attempts < num_slots_; ++attempts) {
    uint8_t expected = 0;
    if (tags_[idx].compare_exchange_strong(expected, 1,
                                           std::memory_order_acq_rel)) {
      std::byte* slot = SlotPtr(idx);
      std::memcpy(slot, key, static_cast<size_t>(num_key_cols_) * 8);
      if (payload_schema_.row_width() > 0) {
        std::memcpy(slot + static_cast<size_t>(num_key_cols_) * 8, payload,
                    payload_schema_.row_width());
      }
      tags_[idx].store(2, std::memory_order_release);
      return;
    }
    idx = (idx + 1) & mask;
  }
  UOT_CHECK(false);  // table over-full: Reserve() was called with too few rows
}

uint64_t JoinHashTable::InsertBatch(const uint64_t* keys,
                                    const std::byte* payloads, uint32_t n,
                                    int prefetch_distance,
                                    std::vector<uint64_t>* hash_scratch) {
  UOT_DCHECK(slots_ != nullptr || heads_ != nullptr);
  if (n == 0) return 0;
  const uint32_t dist = PrefetchDistance(prefetch_distance, n);
  if (dense()) return InsertDense(keys, payloads, n, dist);
  if (hash_scratch->size() < n) hash_scratch->resize(n);
  uint64_t* hashes = hash_scratch->data();
  const int words = num_key_cols_;
  for (uint32_t i = 0; i < n; ++i) {
    hashes[i] = HashJoinKey(keys + static_cast<size_t>(i) * words, words);
  }
  const uint64_t mask = num_slots_ - 1;
  uint64_t prefetches = 0;
  if (dist > 0) {
    const uint32_t warm = dist < n ? dist : n;
    for (uint32_t i = 0; i < warm; ++i) {
      const uint64_t idx = hashes[i] & mask;
      UOT_PREFETCH_WRITE(&tags_[idx]);
      UOT_PREFETCH_WRITE(SlotPtr(idx));
    }
    prefetches += warm;
  }
  const size_t payload_width = payload_schema_.row_width();
  for (uint32_t i = 0; i < n; ++i) {
    if (dist > 0 && i + dist < n) {
      const uint64_t idx = hashes[i + dist] & mask;
      UOT_PREFETCH_WRITE(&tags_[idx]);
      UOT_PREFETCH_WRITE(SlotPtr(idx));
      ++prefetches;
    }
    InsertWithHash(keys + static_cast<size_t>(i) * words, hashes[i],
                   payloads + i * payload_width);
  }
  num_entries_.fetch_add(n, std::memory_order_relaxed);
  return prefetches;
}

uint64_t JoinHashTable::ProbeBatch(const uint64_t* keys, uint32_t n,
                                   int prefetch_distance,
                                   std::vector<uint64_t>* hash_scratch,
                                   std::vector<JoinMatch>* matches) const {
  matches->clear();
  if (n == 0) return 0;
  UOT_DCHECK(slots_ != nullptr || heads_ != nullptr);
  const uint32_t dist = PrefetchDistance(prefetch_distance, n);
  if (dense()) return ProbeDense(keys, n, dist, matches);
  if (hash_scratch->size() < n) hash_scratch->resize(n);
  uint64_t* hashes = hash_scratch->data();
  const int words = num_key_cols_;
  for (uint32_t i = 0; i < n; ++i) {
    hashes[i] = HashJoinKey(keys + static_cast<size_t>(i) * words, words);
  }
  const uint64_t mask = num_slots_ - 1;
  uint64_t prefetches = 0;
  if (dist > 0) {
    const uint32_t warm = dist < n ? dist : n;
    for (uint32_t i = 0; i < warm; ++i) PrefetchSlot(hashes[i] & mask);
    prefetches += warm;
  }
  const size_t payload_offset = static_cast<size_t>(words) * 8;
  for (uint32_t i = 0; i < n; ++i) {
    if (dist > 0 && i + dist < n) {
      PrefetchSlot(hashes[i + dist] & mask);
      ++prefetches;
    }
    const uint64_t* key = keys + static_cast<size_t>(i) * words;
    uint64_t idx = hashes[i] & mask;
    while (true) {
      const uint8_t tag = tags_[idx].load(std::memory_order_acquire);
      if (tag == 0) break;  // empty slot terminates the probe chain
      if (tag == 2) {
        const std::byte* slot = SlotPtr(idx);
        const uint64_t* slot_key = reinterpret_cast<const uint64_t*>(slot);
        bool match = slot_key[0] == key[0];
        if (words == 2) match = match && slot_key[1] == key[1];
        if (match) matches->push_back(JoinMatch{i, slot + payload_offset});
      }
      idx = (idx + 1) & mask;
    }
  }
  return prefetches;
}

uint64_t JoinHashTable::InsertDense(const uint64_t* keys,
                                    const std::byte* payloads, uint32_t n,
                                    uint32_t dist) {
  // One claim per batch: entries [base, base + n) belong to this call.
  const uint64_t base = num_entries_.fetch_add(n, std::memory_order_relaxed);
  UOT_CHECK(base + n <= capacity_);  // Reserve() was given too few rows
  const size_t width = payload_schema_.row_width();
  if (width > 0) {
    std::memcpy(payloads_.get() + base * width, payloads, n * width);
  }
  const uint64_t range = num_slots_;
  uint64_t prefetches = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (dist > 0 && i + dist < n) {
      const uint64_t ahead = keys[i + dist] - key_min_;
      if (ahead < range) {
        UOT_PREFETCH_WRITE(&heads_[ahead]);
        ++prefetches;
      }
    }
    const uint64_t slot = keys[i] - key_min_;
    UOT_CHECK(slot < range);  // key outside Reserve()'s [min, max]
    // Prepend: the head now names this entry, which links to the old head.
    // Relaxed suffices — probes start only after the build->probe edge.
    const uint32_t entry = static_cast<uint32_t>(base + i) + 1;
    next_[entry - 1] = heads_[slot].exchange(entry, std::memory_order_relaxed);
  }
  return prefetches;
}

uint64_t JoinHashTable::ProbeDense(const uint64_t* keys, uint32_t n,
                                   uint32_t dist,
                                   std::vector<JoinMatch>* matches) const {
  const uint64_t range = num_slots_;
  const size_t width = payload_schema_.row_width();
  uint64_t prefetches = 0;
  if (dist > 0) {
    const uint32_t warm = dist < n ? dist : n;
    for (uint32_t i = 0; i < warm; ++i) {
      const uint64_t slot = keys[i] - key_min_;
      if (slot < range) {
        UOT_PREFETCH_READ(&heads_[slot]);
        ++prefetches;
      }
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (dist > 0 && i + dist < n) {
      const uint64_t ahead = keys[i + dist] - key_min_;
      if (ahead < range) {
        UOT_PREFETCH_READ(&heads_[ahead]);
        ++prefetches;
      }
    }
    // Keys below the minimum wrap to huge unsigned offsets, so one compare
    // rejects both sides of the range.
    const uint64_t slot = keys[i] - key_min_;
    if (slot >= range) continue;
    for (uint32_t e = heads_[slot].load(std::memory_order_relaxed); e != 0;
         e = next_[e - 1]) {
      matches->push_back(JoinMatch{i, payloads_.get() + (e - 1) * width});
    }
  }
  return prefetches;
}

}  // namespace uot

#include "join/hash_table.h"

#include <cstring>

#include "obs/trace_session.h"
#include "operators/exec_context.h"

namespace uot {
namespace {

uint64_t NextPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
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
  UOT_CHECK(slots_ == nullptr);  // Reserve is one-shot
  const uint64_t wanted = static_cast<uint64_t>(
      static_cast<double>(num_entries < 1 ? 1 : num_entries) / load_factor_);
  num_slots_ = NextPow2(wanted < 16 ? 16 : wanted);
  slots_ = std::make_unique<std::byte[]>(num_slots_ * slot_stride_);
  // Value-initialised: every tag starts at 0 (empty).
  tags_ = std::make_unique<std::atomic<uint8_t>[]>(num_slots_);
  allocated_bytes_ = num_slots_ * (slot_stride_ + 1);
  if (tracker_ != nullptr) {
    tracker_->Allocate(MemoryCategory::kHashTable, allocated_bytes_);
    if (obs::TraceSession* trace = tracker_->trace()) {
      const int32_t slots = num_slots_ > static_cast<uint64_t>(INT32_MAX)
                                ? INT32_MAX
                                : static_cast<int32_t>(num_slots_);
      trace->EmitInstant(obs::TraceEventType::kHashTableReserve, /*tid=*/0,
                         /*arg0=*/-1, /*arg1=*/slots,
                         static_cast<int64_t>(allocated_bytes_));
    }
  }
}

void JoinHashTable::Insert(const uint64_t* key, const std::byte* payload) {
  UOT_DCHECK(slots_ != nullptr);
  InsertWithHash(key, HashJoinKey(key, num_key_cols_), payload);
  num_entries_.fetch_add(1, std::memory_order_relaxed);
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
  UOT_DCHECK(slots_ != nullptr);
  if (n == 0) return 0;
  if (hash_scratch->size() < n) hash_scratch->resize(n);
  uint64_t* hashes = hash_scratch->data();
  const int words = num_key_cols_;
  for (uint32_t i = 0; i < n; ++i) {
    hashes[i] = HashJoinKey(keys + static_cast<size_t>(i) * words, words);
  }
  const uint64_t mask = num_slots_ - 1;
  const uint32_t dist =
      (prefetch_distance > 0 && n >= JoinKernelConfig::kMinRowsForPrefetch)
          ? static_cast<uint32_t>(prefetch_distance)
          : 0;
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
  UOT_DCHECK(slots_ != nullptr);
  if (hash_scratch->size() < n) hash_scratch->resize(n);
  uint64_t* hashes = hash_scratch->data();
  const int words = num_key_cols_;
  for (uint32_t i = 0; i < n; ++i) {
    hashes[i] = HashJoinKey(keys + static_cast<size_t>(i) * words, words);
  }
  const uint64_t mask = num_slots_ - 1;
  const uint32_t dist =
      (prefetch_distance > 0 && n >= JoinKernelConfig::kMinRowsForPrefetch)
          ? static_cast<uint32_t>(prefetch_distance)
          : 0;
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

}  // namespace uot

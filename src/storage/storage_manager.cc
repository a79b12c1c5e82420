#include "storage/storage_manager.h"

namespace uot {

Block* StorageManager::CreateBlock(const Schema* schema, Layout layout,
                                   size_t capacity_bytes,
                                   MemoryCategory category) {
  // Allocate outside the lock; only the bookkeeping is serialized.
  auto block = std::make_unique<Block>(next_id_.fetch_add(1), schema, layout,
                                       capacity_bytes);
  Block* raw = block.get();
  std::lock_guard<std::mutex> lock(mutex_);
  tracker_.Allocate(category, raw->allocated_bytes());
  raw->storage_slot_ = entries_.size();
  entries_.push_back(Entry{std::move(block), category});
  return raw;
}

void StorageManager::DropBlock(Block* block) {
  std::unique_ptr<Block> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t slot = block->storage_slot_;
    UOT_CHECK(slot < entries_.size() && entries_[slot].block.get() == block);
    tracker_.Release(entries_[slot].category, block->allocated_bytes());
    doomed = std::move(entries_[slot].block);
    if (slot + 1 != entries_.size()) {
      entries_[slot] = std::move(entries_.back());
      entries_[slot].block->storage_slot_ = slot;
    }
    entries_.pop_back();
  }
  // The block's memory is freed after the lock is released.
}

size_t StorageManager::num_blocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace uot

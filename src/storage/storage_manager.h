#ifndef UOT_STORAGE_STORAGE_MANAGER_H_
#define UOT_STORAGE_STORAGE_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/block.h"
#include "util/memory_tracker.h"

namespace uot {

/// Owns every block in the system and accounts their memory.
///
/// Mirrors Quickstep's storage manager at the granularity this study needs:
/// block allocation, ownership, and per-category memory accounting (the
/// paper's Section VI compares hash-table vs intermediate-table footprints).
class StorageManager {
 public:
  StorageManager() = default;
  UOT_DISALLOW_COPY_AND_ASSIGN(StorageManager);

  /// Allocates a new block. The schema must outlive the block.
  Block* CreateBlock(const Schema* schema, Layout layout,
                     size_t capacity_bytes, MemoryCategory category);

  /// Releases a block's memory accounting and destroys it. O(1): each
  /// block knows its entry, and the last entry moves into the hole.
  void DropBlock(Block* block);

  MemoryTracker& tracker() { return tracker_; }
  const MemoryTracker& tracker() const { return tracker_; }

  /// Number of live (not dropped) blocks.
  size_t num_blocks() const;

 private:
  struct Entry {
    std::unique_ptr<Block> block;
    MemoryCategory category;
  };

  mutable std::mutex mutex_;
  // Live blocks in no particular order; entries_[b->storage_slot_] is b's.
  std::vector<Entry> entries_;
  std::atomic<BlockId> next_id_{1};
  MemoryTracker tracker_;
};

}  // namespace uot

#endif  // UOT_STORAGE_STORAGE_MANAGER_H_

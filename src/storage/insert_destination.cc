#include "storage/insert_destination.h"

namespace uot {

InsertDestination::InsertDestination(StorageManager* storage, Table* output,
                                     BlockReadyCallback on_block_ready,
                                     MemoryCategory category)
    : storage_(storage),
      output_(output),
      pool_(storage, &output->schema(), output->layout(),
            output->block_bytes(), category),
      on_block_ready_(std::move(on_block_ready)) {}

InsertDestination::Writer::Writer(InsertDestination* dest)
    : dest_(dest), block_(dest->pool_.Checkout()) {}

InsertDestination::Writer::~Writer() {
  // End of the work order: a block that filled up exactly on the last row
  // is ready for transfer; anything else goes back to the pool.
  if (block_->Full()) {
    dest_->CompleteBlock(block_);
  } else {
    dest_->pool_.Return(block_);
  }
}

Block* InsertDestination::Writer::BlockWithRoom() {
  if (block_->Full()) {
    dest_->CompleteBlock(block_);
    block_ = dest_->pool_.Checkout();
  }
  return block_;
}

void InsertDestination::CompleteBlock(Block* block) {
  block->set_partition(partition_);
  output_->AddBlock(block);
  blocks_completed_.fetch_add(1, std::memory_order_relaxed);
  if (on_block_ready_) on_block_ready_(block);
}

void InsertDestination::Flush() {
  for (Block* block : pool_.DrainAll()) {
    if (block->Empty()) {
      storage_->DropBlock(block);
      continue;
    }
    CompleteBlock(block);
  }
}

}  // namespace uot

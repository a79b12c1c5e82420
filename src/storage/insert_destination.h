#ifndef UOT_STORAGE_INSERT_DESTINATION_H_
#define UOT_STORAGE_INSERT_DESTINATION_H_

#include <atomic>
#include <functional>
#include <vector>

#include "storage/block_pool.h"
#include "storage/table.h"

namespace uot {

/// Where an operator kernel writes its output rows: an
/// InsertDestination::Writer in vectorized work orders, a cache-resident
/// scratch granule in fused pipelines. One kernel serves both.
///
/// Kernels write block by block: take BlockWithRoom(), write up to its
/// free_rows() through its AppendCursor()s, CommitRows(), repeat.
class RowSink {
 public:
  /// A block of the sink's schema with at least one free row. A full block
  /// is handed on (completed, or flushed downstream) before the next one
  /// is returned, so rows must be committed before calling this again.
  virtual Block* BlockWithRoom() = 0;

  /// Appends one packed row (the sink schema's row_width() bytes): the
  /// path of the cold emitters (aggregate finish, sort, joins without a
  /// hash table, exchange).
  void AppendRow(const std::byte* packed_row) {
    UOT_CHECK(BlockWithRoom()->AppendRow(packed_row));
  }

 protected:
  ~RowSink() = default;
};

/// The output sink of a producer operator (paper Section III-A/B).
///
/// Each executing work order opens a Writer, which checks a partially
/// filled block out of the pool, appends output rows, and returns the block
/// when the work order finishes. Whenever a block fills up it is moved into
/// the output table and announced through `on_block_ready` — that signal is
/// what the scheduler's UoT policy accumulates to decide when data is
/// transferred to the consumer operator.
class InsertDestination {
 public:
  /// Called with each completed (full or final partial) block. Invoked from
  /// worker threads; the callee must be thread-safe.
  using BlockReadyCallback = std::function<void(Block*)>;

  /// `output` receives completed blocks and must outlive this destination.
  InsertDestination(StorageManager* storage, Table* output,
                    BlockReadyCallback on_block_ready,
                    MemoryCategory category = MemoryCategory::kTemporaryTable);
  UOT_DISALLOW_COPY_AND_ASSIGN(InsertDestination);

  const Schema& schema() const { return output_->schema(); }
  Table* output() const { return output_; }

  /// Declares this destination the sink of one hash partition: every block
  /// it completes is tagged with `partition` so partition-aware consumers
  /// (partitioned build/probe) can route it. Call before execution starts.
  /// -1 (the default) leaves blocks untagged.
  void set_partition(int32_t partition) { partition_ = partition; }
  int32_t partition() const { return partition_; }

  /// Installs/replaces the block-ready listener; must be called before
  /// execution starts (not thread-safe against concurrent writers).
  void set_on_block_ready(BlockReadyCallback cb) {
    on_block_ready_ = std::move(cb);
  }

  /// A work-order-scoped writer. Movable-from only by the factory.
  class Writer final : public RowSink {
   public:
    explicit Writer(InsertDestination* dest);
    ~Writer();
    UOT_DISALLOW_COPY_AND_ASSIGN(Writer);

    /// Completes the current block if it is full and checks out the next.
    Block* BlockWithRoom() override;

   private:
    InsertDestination* const dest_;
    Block* block_;
  };

  /// Announces every pooled partially-filled block as ready; called once
  /// when the producer operator has executed all of its work orders
  /// ("partially filled blocks are scheduled for data transfer at the end
  /// of the operator's execution").
  void Flush();

  /// Number of blocks announced ready so far.
  uint64_t blocks_completed() const { return blocks_completed_; }

 private:
  friend class Writer;

  void CompleteBlock(Block* block);

  StorageManager* const storage_;
  Table* const output_;
  BlockPool pool_;
  BlockReadyCallback on_block_ready_;
  int32_t partition_ = -1;
  std::atomic<uint64_t> blocks_completed_{0};
};

}  // namespace uot

#endif  // UOT_STORAGE_INSERT_DESTINATION_H_

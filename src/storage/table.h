#ifndef UOT_STORAGE_TABLE_H_
#define UOT_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/block.h"
#include "storage/storage_manager.h"
#include "types/typed_value.h"

namespace uot {

/// A horizontally partitioned table: a schema plus an ordered list of
/// fixed-size blocks (paper Section III-A).
///
/// Base tables are built single-threaded via AppendRow. Temporary tables
/// (operator outputs) receive completed blocks concurrently from insert
/// destinations via AddBlock.
class Table {
 public:
  Table(std::string name, Schema schema, Layout layout, size_t block_bytes,
        StorageManager* storage, MemoryCategory category);
  ~Table();
  UOT_DISALLOW_COPY_AND_ASSIGN(Table);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  Layout layout() const { return layout_; }
  size_t block_bytes() const { return block_bytes_; }

  /// Appends one packed row, allocating blocks as needed (loader path).
  void AppendRow(const std::byte* packed_row);

  /// Appends a row of boxed values (convenience for tests/examples).
  void AppendValues(const std::vector<TypedValue>& values);

  /// Thread-safe: transfers a completed block into this table.
  void AddBlock(Block* block);

  /// Thread-safe: removes `block` from this table without destroying it
  /// (the caller owns the follow-up, e.g. StorageManager::DropBlock).
  /// Returns false if the block is not in this table.
  bool ReleaseBlock(Block* block);

  const std::vector<Block*>& blocks() const { return blocks_; }
  uint64_t NumRows() const;
  /// Total bytes across this table's blocks.
  uint64_t TotalBytes() const;

  /// Boxed value at global row index (row counted across blocks in order);
  /// O(#blocks) — for tests and result rendering only.
  TypedValue GetValue(uint64_t row, int col) const;

  /// Drops all blocks (releases their memory accounting).
  void DropBlocks();

  /// IntegralColumnRange over this table's blocks, computed once per
  /// column and kept until the rows change, so the join builds of every
  /// query over a base table share one pass.
  bool IntegralRange(int col, int64_t* min_value, int64_t* max_value) const;

  /// The smallest widened key word (key_util.h) of key column `col` and the
  /// number of words in [min, max]: max - min + 1 modulo 2^64, so a span of
  /// all 2^64 words is 0. Integral columns order their words as signed
  /// values, CHAR(<= 8) columns as unsigned ones. Cached like
  /// IntegralRange, from the same pass. Returns false for a column that is
  /// not keyable or has no rows.
  bool KeyRange(int col, uint64_t* min_word, uint64_t* range) const;

 private:
  /// A column's cached key-word range.
  struct ColumnRange {
    bool known = false;  // computed since the rows last changed
    bool valid = false;  // keyable column with rows
    uint64_t min_word = 0;
    uint64_t max_word = 0;
  };

  /// The cached range of `col`, computing it first if needed. Requires
  /// `mutex_`.
  const ColumnRange& RangeLocked(int col) const;

  const std::string name_;
  const Schema schema_;
  const Layout layout_;
  const size_t block_bytes_;
  StorageManager* const storage_;
  const MemoryCategory category_;

  mutable std::mutex mutex_;
  std::vector<Block*> blocks_;
  // Per-column key-range cache, cleared whenever the rows change.
  mutable std::vector<ColumnRange> ranges_;
};

/// The minimum and maximum of integral column `col` over every row of
/// `blocks`, as signed 64-bit values (the widened words join keys use).
/// Returns false for a non-integral column or when the blocks hold no rows.
bool IntegralColumnRange(const std::vector<Block*>& blocks, int col,
                         int64_t* min_value, int64_t* max_value);

}  // namespace uot

#endif  // UOT_STORAGE_TABLE_H_

#include "storage/table.h"

#include <algorithm>
#include <cstring>

namespace uot {
namespace {

/// Folds the `n` values of type T at `access` into [*lo, *hi].
template <typename T>
void FoldMinMax(const ColumnAccess& access, uint32_t n, int64_t* lo,
                int64_t* hi) {
  int64_t min_value = *lo;
  int64_t max_value = *hi;
  for (uint32_t i = 0; i < n; ++i) {
    T v;
    std::memcpy(&v, access.at(i), sizeof(T));
    min_value = std::min<int64_t>(min_value, v);
    max_value = std::max<int64_t>(max_value, v);
  }
  *lo = min_value;
  *hi = max_value;
}

}  // namespace

bool IntegralColumnRange(const std::vector<Block*>& blocks, int col,
                         int64_t* min_value, int64_t* max_value) {
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  for (const Block* block : blocks) {
    const Type& type = block->schema().column(col).type;
    if (!type.IsIntegral()) return false;
    if (type.width() == 4) {
      FoldMinMax<int32_t>(block->Column(col), block->num_rows(), &lo, &hi);
    } else {
      FoldMinMax<int64_t>(block->Column(col), block->num_rows(), &lo, &hi);
    }
  }
  if (lo > hi) return false;
  *min_value = lo;
  *max_value = hi;
  return true;
}

Table::Table(std::string name, Schema schema, Layout layout,
             size_t block_bytes, StorageManager* storage,
             MemoryCategory category)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      layout_(layout),
      block_bytes_(block_bytes),
      storage_(storage),
      category_(category) {
  UOT_CHECK(storage_ != nullptr);
  UOT_CHECK(block_bytes_ >= schema_.row_width());
}

Table::~Table() { DropBlocks(); }

void Table::AppendRow(const std::byte* packed_row) {
  if (!ranges_.empty()) ranges_.clear();
  if (blocks_.empty() || !blocks_.back()->AppendRow(packed_row)) {
    Block* block =
        storage_->CreateBlock(&schema_, layout_, block_bytes_, category_);
    blocks_.push_back(block);
    UOT_CHECK(block->AppendRow(packed_row));
  }
}

void Table::AppendValues(const std::vector<TypedValue>& values) {
  UOT_CHECK(static_cast<int>(values.size()) == schema_.num_columns());
  std::vector<std::byte> row(schema_.row_width());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    values[static_cast<size_t>(c)].CopyTo(schema_.column(c).type,
                                          row.data() + schema_.offset(c));
  }
  AppendRow(row.data());
}

void Table::AddBlock(Block* block) {
  UOT_DCHECK(block->schema() == schema_);
  std::lock_guard<std::mutex> lock(mutex_);
  blocks_.push_back(block);
  ranges_.clear();
}

bool Table::ReleaseBlock(Block* block) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
    if (*it == block) {
      blocks_.erase(it);
      ranges_.clear();
      return true;
    }
  }
  return false;
}

uint64_t Table::NumRows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t rows = 0;
  for (const Block* b : blocks_) rows += b->num_rows();
  return rows;
}

uint64_t Table::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t bytes = 0;
  for (const Block* b : blocks_) bytes += b->allocated_bytes();
  return bytes;
}

TypedValue Table::GetValue(uint64_t row, int col) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Block* b : blocks_) {
    if (row < b->num_rows()) {
      const ColumnAccess access = b->Column(col);
      return TypedValue::Load(schema_.column(col).type,
                              access.at(static_cast<uint32_t>(row)));
    }
    row -= b->num_rows();
  }
  UOT_CHECK(false);
  return TypedValue();
}

void Table::DropBlocks() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Block* b : blocks_) storage_->DropBlock(b);
  blocks_.clear();
  ranges_.clear();
}

const Table::ColumnRange& Table::RangeLocked(int col) const {
  if (ranges_.empty()) ranges_.resize(schema_.num_columns());
  ColumnRange& range = ranges_[static_cast<size_t>(col)];
  if (range.known) return range;
  range.known = true;
  const Type& type = schema_.column(col).type;
  if (type.IsIntegral()) {
    int64_t lo = 0;
    int64_t hi = 0;
    range.valid = IntegralColumnRange(blocks_, col, &lo, &hi);
    range.min_word = static_cast<uint64_t>(lo);
    range.max_word = static_cast<uint64_t>(hi);
  } else if (type.id() == TypeId::kChar && type.width() <= 8) {
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    const size_t width = type.width();
    for (const Block* block : blocks_) {
      const ColumnAccess access = block->Column(col);
      for (uint32_t i = 0; i < block->num_rows(); ++i) {
        uint64_t word = 0;
        std::memcpy(&word, access.at(i), width);
        lo = std::min(lo, word);
        hi = std::max(hi, word);
      }
    }
    range.valid = lo <= hi;
    range.min_word = lo;
    range.max_word = hi;
  }
  return range;
}

bool Table::IntegralRange(int col, int64_t* min_value,
                          int64_t* max_value) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ColumnRange& range = RangeLocked(col);
  *min_value = static_cast<int64_t>(range.min_word);
  *max_value = static_cast<int64_t>(range.max_word);
  return range.valid && schema_.column(col).type.IsIntegral();
}

bool Table::KeyRange(int col, uint64_t* min_word, uint64_t* range) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ColumnRange& cached = RangeLocked(col);
  *min_word = cached.min_word;
  *range = cached.max_word - cached.min_word + 1;
  return cached.valid;
}

}  // namespace uot

#ifndef UOT_OPERATORS_KEY_UTIL_H_
#define UOT_OPERATORS_KEY_UTIL_H_

#include <cstring>
#include <type_traits>
#include <vector>

#include "storage/block.h"
#include "types/schema.h"
#include "util/macros.h"

namespace uot {

/// Join/grouping keys are 1-2 columns widened to 64-bit words. Integral
/// columns sign-extend; CHAR columns of width <= 8 pack their (space padded)
/// bytes. Equality of widened words is equivalent to equality of values.
inline uint64_t WidenKeyValue(const Type& type, const std::byte* value) {
  switch (type.id()) {
    case TypeId::kInt32:
    case TypeId::kDate: {
      int32_t v;
      std::memcpy(&v, value, 4);
      return static_cast<uint64_t>(static_cast<int64_t>(v));
    }
    case TypeId::kInt64: {
      int64_t v;
      std::memcpy(&v, value, 8);
      return static_cast<uint64_t>(v);
    }
    case TypeId::kChar: {
      UOT_DCHECK(type.width() <= 8);
      uint64_t v = 0;
      std::memcpy(&v, value, type.width());
      return v;
    }
    case TypeId::kDouble:
      UOT_CHECK(false);  // doubles are not key material
  }
  return 0;
}

/// Restores the packed representation of a widened key word.
inline void UnwidenKeyValue(const Type& type, uint64_t word, std::byte* out) {
  switch (type.id()) {
    case TypeId::kInt32:
    case TypeId::kDate: {
      const int32_t v = static_cast<int32_t>(static_cast<int64_t>(word));
      std::memcpy(out, &v, 4);
      return;
    }
    case TypeId::kInt64: {
      const int64_t v = static_cast<int64_t>(word);
      std::memcpy(out, &v, 8);
      return;
    }
    case TypeId::kChar:
      std::memcpy(out, &word, type.width());
      return;
    case TypeId::kDouble:
      UOT_CHECK(false);
  }
}

/// True if `type` can serve as a key column.
inline bool IsKeyableType(const Type& type) {
  return type.IsIntegral() ||
         (type.id() == TypeId::kChar && type.width() <= 8);
}

/// Extracts the composite key of row `row` from `block` into `out[0..words)`.
inline void ExtractKey(const Block& block, const std::vector<int>& key_cols,
                       uint32_t row, uint64_t* out) {
  for (size_t k = 0; k < key_cols.size(); ++k) {
    const int col = key_cols[k];
    const Type& type = block.schema().column(col).type;
    out[k] = WidenKeyValue(type, block.Column(col).at(row));
  }
}

/// Calls `fn(i, word)` for i in [0, n) with the widened key word of row
/// `row_at(i)` of a `type` column read through `access`. The type dispatch
/// and the CHAR width are hoisted out of the row loop, so each inner loop
/// is a tight strided load of a fixed width.
template <typename RowAt, typename Fn>
inline void ForEachKeyWord(const Type& type, const ColumnAccess& access,
                           RowAt row_at, uint32_t n, Fn fn) {
  auto widen = [&](auto width) {
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      std::memcpy(&v, access.at(row_at(i)), width);
      fn(i, v);
    }
  };
  switch (type.id()) {
    case TypeId::kInt32:
    case TypeId::kDate:
      for (uint32_t i = 0; i < n; ++i) {
        int32_t v;
        std::memcpy(&v, access.at(row_at(i)), 4);
        fn(i, static_cast<uint64_t>(static_cast<int64_t>(v)));
      }
      return;
    case TypeId::kInt64:
      widen(std::integral_constant<size_t, 8>());
      return;
    case TypeId::kChar:
      switch (type.width()) {
        case 1:
          return widen(std::integral_constant<size_t, 1>());
        case 2:
          return widen(std::integral_constant<size_t, 2>());
        case 3:
          return widen(std::integral_constant<size_t, 3>());
        case 4:
          return widen(std::integral_constant<size_t, 4>());
        case 5:
          return widen(std::integral_constant<size_t, 5>());
        case 6:
          return widen(std::integral_constant<size_t, 6>());
        case 7:
          return widen(std::integral_constant<size_t, 7>());
        case 8:
          return widen(std::integral_constant<size_t, 8>());
      }
      UOT_CHECK(false);  // CHAR keys are at most 8 bytes
      return;
    case TypeId::kDouble:
      UOT_CHECK(false);  // doubles are not key material
  }
}

/// Columnar batch form of ExtractKey: widens the composite keys of rows
/// `[row_begin, row_begin + n)` into `out[i * words + k]` (row-major, one
/// group of `key_cols.size()` words per row) — the extract stage of the
/// batched join kernels.
inline void ExtractKeys(const Block& block, const std::vector<int>& key_cols,
                        uint32_t row_begin, uint32_t n, uint64_t* out) {
  const size_t words = key_cols.size();
  for (size_t k = 0; k < words; ++k) {
    const int col = key_cols[k];
    uint64_t* dst = out + k;
    ForEachKeyWord(
        block.schema().column(col).type, block.Column(col),
        [=](uint32_t i) { return row_begin + i; }, n,
        [=](uint32_t i, uint64_t word) {
          dst[static_cast<size_t>(i) * words] = word;
        });
  }
}

/// Writes `n` values of `width` bytes to a strided destination, value i
/// read from `src_at(i)`. Widths 4 and 8 compile to plain loads and
/// stores.
template <typename SrcAt>
inline void CopyValues(uint16_t width, SrcAt src_at, uint32_t n,
                       std::byte* dst, uint32_t dst_stride) {
  auto copy = [&](auto w) {
    for (uint32_t i = 0; i < n; ++i) {
      std::memcpy(dst + static_cast<size_t>(i) * dst_stride, src_at(i), w);
    }
  };
  switch (width) {
    case 4:
      copy(std::integral_constant<size_t, 4>());
      return;
    case 8:
      copy(std::integral_constant<size_t, 8>());
      return;
    default:
      copy(static_cast<size_t>(width));
  }
}

/// Copies `n` values of `width` bytes from a strided column at `src` to a
/// strided destination at `dst`: value i comes from row `rows[i]` of the
/// source, or from row i when `rows` is null (a contiguous range). The
/// gather behind every columnar write of operator output.
inline void GatherValues(uint16_t width, const std::byte* src,
                         uint32_t src_stride, const uint32_t* rows,
                         uint32_t n, std::byte* dst, uint32_t dst_stride) {
  if (rows == nullptr) {
    CopyValues(
        width,
        [=](uint32_t i) { return src + static_cast<size_t>(i) * src_stride; },
        n, dst, dst_stride);
    return;
  }
  CopyValues(
      width,
      [=](uint32_t i) {
        return src + static_cast<size_t>(rows[i]) * src_stride;
      },
      n, dst, dst_stride);
}

/// Columnar batch form of ExtractColumns: packs rows
/// `[row_begin, row_begin + n)` of the given columns into `n` consecutive
/// packed rows of `out_schema` starting at `out`.
inline void ExtractRows(const Block& block, const std::vector<int>& cols,
                        const Schema& out_schema, uint32_t row_begin,
                        uint32_t n, std::byte* out) {
  for (size_t c = 0; c < cols.size(); ++c) {
    const ColumnAccess access = block.Column(cols[c]);
    GatherValues(out_schema.column(static_cast<int>(c)).type.width(),
                 access.at(row_begin), access.stride, nullptr, n,
                 out + out_schema.offset(static_cast<int>(c)),
                 out_schema.row_width());
  }
}

/// Copies the given columns of row `row` into a packed row of the
/// sub-schema formed by those columns, written at `out`.
inline void ExtractColumns(const Block& block, const std::vector<int>& cols,
                           const Schema& out_schema, uint32_t row,
                           std::byte* out) {
  for (size_t i = 0; i < cols.size(); ++i) {
    const uint16_t w = out_schema.column(static_cast<int>(i)).type.width();
    std::memcpy(out + out_schema.offset(static_cast<int>(i)),
                block.Column(cols[i]).at(row), w);
  }
}

/// Builds the sub-schema of `input` selecting `cols` (names preserved).
inline Schema SubSchema(const Schema& input, const std::vector<int>& cols) {
  std::vector<Column> out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(input.column(c));
  return Schema(std::move(out));
}

}  // namespace uot

#endif  // UOT_OPERATORS_KEY_UTIL_H_

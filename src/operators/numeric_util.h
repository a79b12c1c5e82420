#ifndef UOT_OPERATORS_NUMERIC_UTIL_H_
#define UOT_OPERATORS_NUMERIC_UTIL_H_

#include <cstring>

#include "expr/predicate.h"
#include "storage/block.h"
#include "types/type.h"
#include "util/macros.h"

namespace uot {

/// Applies `op` to one pair of already-widened numeric operands (the probe
/// kernel's residual-condition filter).
template <typename T>
inline bool CompareValues(CompareOp op, T a, T b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

/// Loads a numeric column value widened to double (int64 -> double keeps
/// the usual precision loss; residual comparisons depend on it being
/// applied identically on every execution path).
inline double LoadNumeric(const Type& type, const std::byte* src) {
  switch (type.id()) {
    case TypeId::kInt32:
    case TypeId::kDate: {
      int32_t v;
      std::memcpy(&v, src, 4);
      return static_cast<double>(v);
    }
    case TypeId::kInt64: {
      int64_t v;
      std::memcpy(&v, src, 8);
      return static_cast<double>(v);
    }
    case TypeId::kDouble: {
      double v;
      std::memcpy(&v, src, 8);
      return v;
    }
    case TypeId::kChar:
      UOT_CHECK(false);  // residuals compare numeric columns
  }
  return 0.0;
}

/// Columnar LoadNumeric over rows `[row_begin, row_begin + n)`: the type
/// dispatch is hoisted out of the row loop (batched extract stage).
inline void LoadNumericColumn(const Type& type, const ColumnAccess& access,
                              uint32_t row_begin, uint32_t n, double* out) {
  switch (type.id()) {
    case TypeId::kInt32:
    case TypeId::kDate:
      for (uint32_t i = 0; i < n; ++i) {
        int32_t v;
        std::memcpy(&v, access.at(row_begin + i), 4);
        out[i] = static_cast<double>(v);
      }
      return;
    case TypeId::kInt64:
      for (uint32_t i = 0; i < n; ++i) {
        int64_t v;
        std::memcpy(&v, access.at(row_begin + i), 8);
        out[i] = static_cast<double>(v);
      }
      return;
    case TypeId::kDouble:
      for (uint32_t i = 0; i < n; ++i) {
        std::memcpy(&out[i], access.at(row_begin + i), 8);
      }
      return;
    case TypeId::kChar:
      UOT_CHECK(false);  // residuals compare numeric columns
  }
}

}  // namespace uot

#endif  // UOT_OPERATORS_NUMERIC_UTIL_H_

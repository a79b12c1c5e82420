#include "expr/predicate.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <type_traits>

#include "util/scratch_arena.h"

namespace uot {
namespace {

/// Calls `fn` with the function object of comparison `op`.
template <typename Fn>
void WithCompare(CompareOp op, Fn fn) {
  switch (op) {
    case CompareOp::kEq:
      return fn(std::equal_to<>());
    case CompareOp::kNe:
      return fn(std::not_equal_to<>());
    case CompareOp::kLt:
      return fn(std::less<>());
    case CompareOp::kLe:
      return fn(std::less_equal<>());
    case CompareOp::kGt:
      return fn(std::greater<>());
    case CompareOp::kGe:
      return fn(std::greater_equal<>());
  }
}

/// Keeps the selected rows for which `keep(i, row)` holds (`row` is the
/// i-th selected row), compacting in place and preserving row order. Stores
/// unconditionally and advances `kept` by the result, so the loop has no
/// data-dependent branch to mispredict.
template <typename Keep>
void Compact(std::vector<uint32_t>* sel, Keep keep) {
  const uint32_t n = static_cast<uint32_t>(sel->size());
  uint32_t* s = sel->data();
  uint32_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t row = s[i];
    s[kept] = row;
    kept += static_cast<uint32_t>(keep(i, row));
  }
  sel->resize(kept);
}

template <typename T>
T Load(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// Calls `fn` with a value of the C++ type a numeric `type` is stored as.
template <typename Fn>
void WithStorage(const Type& type, Fn fn) {
  switch (type.id()) {
    case TypeId::kInt32:
    case TypeId::kDate:
      return fn(int32_t{});
    case TypeId::kInt64:
      return fn(int64_t{});
    case TypeId::kDouble:
    case TypeId::kChar:
      return fn(double{});
  }
}

/// Evaluates integral `scalar` over `rows` into sign-extended int64s.
void EvalAsInt64(const Scalar& scalar, const Block& block,
                 const uint32_t* rows, uint32_t n, int64_t* out) {
  const Type type = scalar.result_type();
  UOT_CHECK(type.IsIntegral());
  if (type.width() == 8) {
    scalar.Eval(block, rows, n, reinterpret_cast<std::byte*>(out));
    return;
  }
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  int32_t* narrow = arena.AllocArray<int32_t>(n);
  scalar.Eval(block, rows, n, reinterpret_cast<std::byte*>(narrow));
  for (uint32_t i = 0; i < n; ++i) out[i] = narrow[i];
}

/// Big-endian order of a CHAR(<= 8) value loaded little-endian: comparing
/// the results as unsigned words is comparing the bytes with memcmp.
inline uint64_t ByteOrder(uint64_t word) { return __builtin_bswap64(word); }

/// Calls `fn` with the CHAR width `w` (1-8) as a compile-time constant.
template <typename Fn>
void WithCharWidth(uint16_t w, Fn fn) {
  switch (w) {
    case 1:
      return fn(std::integral_constant<size_t, 1>());
    case 2:
      return fn(std::integral_constant<size_t, 2>());
    case 3:
      return fn(std::integral_constant<size_t, 3>());
    case 4:
      return fn(std::integral_constant<size_t, 4>());
    case 5:
      return fn(std::integral_constant<size_t, 5>());
    case 6:
      return fn(std::integral_constant<size_t, 6>());
    case 7:
      return fn(std::integral_constant<size_t, 7>());
    case 8:
      return fn(std::integral_constant<size_t, 8>());
  }
  UOT_CHECK(false);
}

/// A CHAR operand's values: the i-th selected value is at
/// `base + (by_row ? row : i) * stride` (a literal has stride 0).
struct CharOperand {
  const std::byte* base;
  size_t stride;
  bool by_row;

  const std::byte* at(uint32_t i, uint32_t row) const {
    return base + static_cast<size_t>(by_row ? row : i) * stride;
  }
};

/// `scalar`'s CHAR values over the selection: read in place for a column
/// or a literal, else evaluated into arena scratch of the caller's scope.
CharOperand CharValues(const Scalar& scalar, const Block& block,
                       const std::vector<uint32_t>& sel,
                       ScratchArena* arena) {
  if (const ColumnRef* ref = scalar.as_column_ref()) {
    const ColumnAccess access = block.Column(ref->col());
    return CharOperand{access.base, access.stride, true};
  }
  if (const Literal* lit = scalar.as_literal()) {
    return CharOperand{lit->packed(), 0, false};
  }
  const uint16_t w = scalar.result_type().width();
  std::byte* values = arena->Alloc(sel.size() * w);
  scalar.Eval(block, sel.data(), static_cast<uint32_t>(sel.size()), values);
  return CharOperand{values, w, false};
}

}  // namespace

std::vector<uint32_t> Predicate::FilterAll(const Block& block) const {
  std::vector<uint32_t> sel(block.num_rows());
  for (uint32_t i = 0; i < block.num_rows(); ++i) sel[i] = i;
  Filter(block, &sel);
  return sel;
}

Comparison::Comparison(CompareOp op, std::unique_ptr<Scalar> left,
                       std::unique_ptr<Scalar> right)
    : op_(op),
      left_(std::move(left)),
      right_(std::move(right)),
      is_char_(left_->result_type().id() == TypeId::kChar),
      integral_(left_->result_type().IsIntegral() &&
                right_->result_type().IsIntegral()) {
  if (is_char_) {
    UOT_CHECK(right_->result_type().id() == TypeId::kChar);
    UOT_CHECK(left_->result_type().width() == right_->result_type().width());
    return;
  }
  UOT_CHECK(left_->result_type().IsNumeric());
  UOT_CHECK(right_->result_type().IsNumeric());
  if (const Literal* lit = right_->as_literal()) {
    if (integral_) {
      int_constant_ = lit->value().ToInt64();
      narrow_constant_ = left_->result_type().width() == 4 &&
                         int_constant_ >= INT32_MIN &&
                         int_constant_ <= INT32_MAX;
    }
    double_constant_ = lit->value().ToDouble();
  }
}

void Comparison::Filter(const Block& block, std::vector<uint32_t>* sel) const {
  if (sel->empty()) return;
  if (is_char_) {
    FilterChar(block, sel);
    return;
  }
  const ColumnRef* lhs_col = left_->as_column_ref();
  const ColumnRef* rhs_col = right_->as_column_ref();
  const bool rhs_literal = right_->as_literal() != nullptr;
  const Type lhs_type = left_->result_type();
  WithCompare(op_, [&](auto cmp) {
    if (lhs_col != nullptr && rhs_literal) {
      // Column against a constant, read through the column's stride in
      // its own type: INT32/DATE against an int32, any integer against an
      // int64, and anything against a DOUBLE as a double.
      const ColumnAccess lhs = block.Column(lhs_col->col());
      WithStorage(lhs_type, [&](auto stored) {
        using T = decltype(stored);
        auto run = [&](auto constant) {
          using C = decltype(constant);
          Compact(sel, [&](uint32_t, uint32_t row) {
            return cmp(static_cast<C>(Load<T>(lhs.at(row))), constant);
          });
        };
        if constexpr (std::is_same_v<T, double>) {
          run(double_constant_);
        } else {
          if (!integral_) {
            run(double_constant_);
          } else if (std::is_same_v<T, int32_t> && narrow_constant_) {
            run(static_cast<int32_t>(int_constant_));
          } else {
            run(int_constant_);
          }
        }
      });
      return;
    }
    if (lhs_col != nullptr && rhs_col != nullptr &&
        lhs_type.width() == right_->result_type().width() &&
        lhs_type.IsIntegral() == right_->result_type().IsIntegral()) {
      // Two columns stored alike compare in their own type.
      const ColumnAccess lhs = block.Column(lhs_col->col());
      const ColumnAccess rhs = block.Column(rhs_col->col());
      WithStorage(lhs_type, [&](auto stored) {
        using T = decltype(stored);
        Compact(sel, [&](uint32_t, uint32_t row) {
          return cmp(Load<T>(lhs.at(row)), Load<T>(rhs.at(row)));
        });
      });
      return;
    }
    // Any other pair: both sides evaluated into scratch (a literal right
    // side stays one constant), as int64s when both are integers.
    const uint32_t n = static_cast<uint32_t>(sel->size());
    ScratchArena& arena = ScratchArena::ForThread();
    ScratchArena::Scope scope(&arena);
    auto run = [&](auto* lhs, auto constant, auto eval) {
      using T = std::remove_pointer_t<decltype(lhs)>;
      eval(*left_, lhs);
      if (rhs_literal) {
        Compact(sel,
                [&](uint32_t i, uint32_t) { return cmp(lhs[i], constant); });
        return;
      }
      T* rhs = arena.AllocArray<T>(n);
      eval(*right_, rhs);
      Compact(sel, [&](uint32_t i, uint32_t) { return cmp(lhs[i], rhs[i]); });
    };
    if (integral_) {
      run(arena.AllocArray<int64_t>(n), int_constant_,
          [&](const Scalar& side, int64_t* out) {
            EvalAsInt64(side, block, sel->data(), n, out);
          });
    } else {
      run(arena.AllocArray<double>(n), double_constant_,
          [&](const Scalar& side, double* out) {
            EvalAsDouble(side, block, sel->data(), n, out);
          });
    }
  });
}

void Comparison::FilterChar(const Block& block,
                            std::vector<uint32_t>* sel) const {
  const uint16_t w = left_->result_type().width();
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  const CharOperand lhs = CharValues(*left_, block, *sel, &arena);
  const CharOperand rhs = CharValues(*right_, block, *sel, &arena);
  WithCompare(op_, [&](auto cmp) {
    if (w <= 8 && lhs.by_row && rhs.stride == 0) {
      // A column against a literal: fixed-width words, the literal's
      // hoisted.
      WithCharWidth(w, [&](auto width) {
        auto word = [&](const std::byte* p) {
          uint64_t v = 0;
          std::memcpy(&v, p, width);
          return ByteOrder(v);
        };
        const uint64_t constant = word(rhs.base);
        Compact(sel, [&](uint32_t, uint32_t row) {
          return cmp(word(lhs.base + static_cast<size_t>(row) * lhs.stride),
                     constant);
        });
      });
      return;
    }
    Compact(sel, [&](uint32_t i, uint32_t row) {
      return cmp(std::memcmp(lhs.at(i, row), rhs.at(i, row), w), 0);
    });
  });
}

std::string Comparison::ToString() const {
  static constexpr const char* kOps[] = {" = ", " <> ", " < ",
                                         " <= ", " > ", " >= "};
  std::string out = "(";
  out += left_->ToString();
  out += kOps[static_cast<int>(op_)];
  out += right_->ToString();
  out += ')';
  return out;
}

void Conjunction::Filter(const Block& block,
                         std::vector<uint32_t>* sel) const {
  for (const auto& child : children_) {
    if (sel->empty()) return;
    child->Filter(block, sel);
  }
}

std::string Conjunction::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += children_[i]->ToString();
  }
  return out + ")";
}

void Disjunction::Filter(const Block& block,
                         std::vector<uint32_t>* sel) const {
  ScratchSelVector result;
  ScratchSelVector candidate;
  ScratchSelVector merged;
  for (const auto& child : children_) {
    candidate->assign(sel->begin(), sel->end());
    child->Filter(block, candidate.get());
    // Union of two sorted lists.
    merged->clear();
    std::set_union(result->begin(), result->end(), candidate->begin(),
                   candidate->end(), std::back_inserter(*merged));
    result->swap(*merged);
  }
  // The union is a subset of *sel: no reallocation.
  sel->assign(result->begin(), result->end());
}

std::string Disjunction::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) out += " OR ";
    out += children_[i]->ToString();
  }
  return out + ")";
}

void Negation::Filter(const Block& block, std::vector<uint32_t>* sel) const {
  ScratchSelVector matched;
  matched->assign(sel->begin(), sel->end());
  child_->Filter(block, matched.get());
  // Keep the rows of *sel absent from `matched` (a sorted subsequence).
  uint32_t kept = 0;
  size_t m = 0;
  for (const uint32_t row : *sel) {
    if (m < matched->size() && (*matched)[m] == row) {
      ++m;
    } else {
      (*sel)[kept++] = row;
    }
  }
  sel->resize(kept);
}

std::string Negation::ToString() const {
  return "NOT " + child_->ToString();
}

InList::InList(std::unique_ptr<Scalar> expr, std::vector<TypedValue> values)
    : expr_(std::move(expr)), values_(std::move(values)) {
  const Type type = expr_->result_type();
  packed_.reserve(values_.size());
  for (const TypedValue& v : values_) {
    std::vector<std::byte> buf(type.width());
    v.CopyTo(type, buf.data());
    packed_.push_back(std::move(buf));
  }
}

void InList::Filter(const Block& block, std::vector<uint32_t>* sel) const {
  const uint32_t n = static_cast<uint32_t>(sel->size());
  if (n == 0) return;
  const uint16_t w = expr_->result_type().width();
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  std::byte* vals = arena.Alloc(static_cast<size_t>(n) * w);
  expr_->Eval(block, sel->data(), n, vals);
  uint32_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const std::byte* v = vals + static_cast<size_t>(i) * w;
    bool found = false;
    for (const auto& candidate : packed_) {
      if (std::memcmp(v, candidate.data(), w) == 0) {
        found = true;
        break;
      }
    }
    if (found) (*sel)[kept++] = (*sel)[i];
  }
  sel->resize(kept);
}

std::string InList::ToString() const {
  std::string out = expr_->ToString() + " IN (";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  return out + ")";
}

Like::Like(std::unique_ptr<Scalar> expr, std::string pattern, bool negated)
    : expr_(std::move(expr)),
      pattern_(std::move(pattern)),
      negated_(negated) {
  UOT_CHECK(expr_->result_type().id() == TypeId::kChar);
  UOT_CHECK(pattern_.find('_') == std::string::npos);
  anchored_start_ = !pattern_.empty() && pattern_.front() != '%';
  anchored_end_ = !pattern_.empty() && pattern_.back() != '%';
  std::string current;
  for (char c : pattern_) {
    if (c == '%') {
      if (!current.empty()) parts_.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) parts_.push_back(current);
}

bool Like::Matches(const char* text, size_t len) const {
  // Strip space padding from the fixed-width value.
  while (len > 0 && text[len - 1] == ' ') --len;
  if (parts_.empty()) return true;  // pattern was all '%'
  size_t pos = 0;
  for (size_t p = 0; p < parts_.size(); ++p) {
    const std::string& part = parts_[p];
    if (p == 0 && anchored_start_) {
      if (len < part.size() ||
          std::memcmp(text, part.data(), part.size()) != 0) {
        return false;
      }
      pos = part.size();
      continue;
    }
    // Greedy search for the next occurrence at or after pos.
    bool found = false;
    for (size_t i = pos; i + part.size() <= len; ++i) {
      if (std::memcmp(text + i, part.data(), part.size()) == 0) {
        pos = i + part.size();
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  if (anchored_end_) {
    const std::string& last = parts_.back();
    if (len < last.size() ||
        std::memcmp(text + (len - last.size()), last.data(), last.size()) !=
            0) {
      return false;
    }
  }
  return true;
}

void Like::Filter(const Block& block, std::vector<uint32_t>* sel) const {
  const uint32_t n = static_cast<uint32_t>(sel->size());
  if (n == 0) return;
  const uint16_t w = expr_->result_type().width();
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  std::byte* vals = arena.Alloc(static_cast<size_t>(n) * w);
  expr_->Eval(block, sel->data(), n, vals);
  uint32_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const char* text =
        reinterpret_cast<const char*>(vals + static_cast<size_t>(i) * w);
    if (Matches(text, w) != negated_) (*sel)[kept++] = (*sel)[i];
  }
  sel->resize(kept);
}

std::string Like::ToString() const {
  return expr_->ToString() + (negated_ ? " NOT LIKE '" : " LIKE '") +
         pattern_ + "'";
}

std::unique_ptr<Predicate> Cmp(CompareOp op, std::unique_ptr<Scalar> l,
                               std::unique_ptr<Scalar> r) {
  return std::make_unique<Comparison>(op, std::move(l), std::move(r));
}

std::unique_ptr<Predicate> And(std::vector<std::unique_ptr<Predicate>> ps) {
  return std::make_unique<Conjunction>(std::move(ps));
}

std::unique_ptr<Predicate> Or(std::vector<std::unique_ptr<Predicate>> ps) {
  return std::make_unique<Disjunction>(std::move(ps));
}

std::unique_ptr<Predicate> Not(std::unique_ptr<Predicate> p) {
  return std::make_unique<Negation>(std::move(p));
}

std::unique_ptr<Predicate> BetweenCol(int col, Type type, TypedValue lo,
                                      TypedValue hi) {
  std::vector<std::unique_ptr<Predicate>> parts;
  parts.push_back(Cmp(CompareOp::kGe, Col(col, type), Lit(std::move(lo), type)));
  parts.push_back(Cmp(CompareOp::kLe, Col(col, type), Lit(std::move(hi), type)));
  return And(std::move(parts));
}

}  // namespace uot

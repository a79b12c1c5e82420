#include "expr/predicate.h"

#include <algorithm>
#include <cstring>

namespace uot {
namespace {

/// One comparison over the selection, column-vs-column or
/// column-vs-hoisted-constant (`rhs_const` non-null), compacting in place
/// and preserving row order. Stores unconditionally and advances `kept` by
/// the comparison result, which keeps the loop free of data-dependent
/// branches so the compiler can vectorize it.
template <typename Op>
void RunCompare(const double* lhs, const double* rhs,
                const double* rhs_const, Op op, std::vector<uint32_t>* sel) {
  const uint32_t n = static_cast<uint32_t>(sel->size());
  uint32_t* s = sel->data();
  uint32_t kept = 0;
  if (rhs_const != nullptr) {
    const double c = *rhs_const;
    for (uint32_t i = 0; i < n; ++i) {
      s[kept] = s[i];
      kept += static_cast<uint32_t>(op(lhs[i], c));
    }
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      s[kept] = s[i];
      kept += static_cast<uint32_t>(op(lhs[i], rhs[i]));
    }
  }
  sel->resize(kept);
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
      rhs_is_literal_(!is_char_ &&
                      dynamic_cast<const Literal*>(right_.get()) != nullptr) {
  if (is_char_) {
    UOT_CHECK(right_->result_type().id() == TypeId::kChar);
    UOT_CHECK(left_->result_type().width() == right_->result_type().width());
  } else {
    UOT_CHECK(left_->result_type().IsNumeric());
    UOT_CHECK(right_->result_type().IsNumeric());
  }
}

void Comparison::Filter(const Block& block, std::vector<uint32_t>* sel) const {
  const uint32_t n = static_cast<uint32_t>(sel->size());
  if (n == 0) return;
  if (!is_char_) {
    std::vector<double> lhs(n);
    EvalAsDouble(*left_, block, sel->data(), n, lhs.data());
    // Literal right operands hoist to a loop constant; otherwise the
    // operand is materialized per selected row like the left side.
    double constant = 0.0;
    const double* rhs_const = nullptr;
    std::vector<double> rhs;
    if (rhs_is_literal_) {
      EvalAsDouble(*right_, block, sel->data(), 1, &constant);
      rhs_const = &constant;
    } else {
      rhs.resize(n);
      EvalAsDouble(*right_, block, sel->data(), n, rhs.data());
    }
    switch (op_) {
      case CompareOp::kEq:
        RunCompare(lhs.data(), rhs.data(), rhs_const,
                   [](double a, double b) { return a == b; }, sel);
        return;
      case CompareOp::kNe:
        RunCompare(lhs.data(), rhs.data(), rhs_const,
                   [](double a, double b) { return a != b; }, sel);
        return;
      case CompareOp::kLt:
        RunCompare(lhs.data(), rhs.data(), rhs_const,
                   [](double a, double b) { return a < b; }, sel);
        return;
      case CompareOp::kLe:
        RunCompare(lhs.data(), rhs.data(), rhs_const,
                   [](double a, double b) { return a <= b; }, sel);
        return;
      case CompareOp::kGt:
        RunCompare(lhs.data(), rhs.data(), rhs_const,
                   [](double a, double b) { return a > b; }, sel);
        return;
      case CompareOp::kGe:
        RunCompare(lhs.data(), rhs.data(), rhs_const,
                   [](double a, double b) { return a >= b; }, sel);
        return;
    }
    return;
  }
  const uint16_t w = left_->result_type().width();
  std::vector<std::byte> lhs(static_cast<size_t>(n) * w);
  std::vector<std::byte> rhs(static_cast<size_t>(n) * w);
  left_->Eval(block, sel->data(), n, lhs.data());
  right_->Eval(block, sel->data(), n, rhs.data());
  uint32_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const int c = std::memcmp(lhs.data() + static_cast<size_t>(i) * w,
                              rhs.data() + static_cast<size_t>(i) * w, w);
    bool keep = false;
    switch (op_) {
      case CompareOp::kEq:
        keep = c == 0;
        break;
      case CompareOp::kNe:
        keep = c != 0;
        break;
      case CompareOp::kLt:
        keep = c < 0;
        break;
      case CompareOp::kLe:
        keep = c <= 0;
        break;
      case CompareOp::kGt:
        keep = c > 0;
        break;
      case CompareOp::kGe:
        keep = c >= 0;
        break;
    }
    if (keep) (*sel)[kept++] = (*sel)[i];
  }
  sel->resize(kept);
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
  std::vector<uint32_t> result;
  for (const auto& child : children_) {
    std::vector<uint32_t> candidate = *sel;
    child->Filter(block, &candidate);
    // Union of two sorted lists.
    std::vector<uint32_t> merged;
    merged.reserve(result.size() + candidate.size());
    std::set_union(result.begin(), result.end(), candidate.begin(),
                   candidate.end(), std::back_inserter(merged));
    result = std::move(merged);
  }
  *sel = std::move(result);
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
  std::vector<uint32_t> matched = *sel;
  child_->Filter(block, &matched);
  // Keep rows in *sel that are absent from `matched` (both sorted).
  std::vector<uint32_t> kept;
  kept.reserve(sel->size() - matched.size());
  std::set_difference(sel->begin(), sel->end(), matched.begin(),
                      matched.end(), std::back_inserter(kept));
  *sel = std::move(kept);
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
  std::vector<std::byte> vals(static_cast<size_t>(n) * w);
  expr_->Eval(block, sel->data(), n, vals.data());
  uint32_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const std::byte* v = vals.data() + static_cast<size_t>(i) * w;
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
  std::vector<std::byte> vals(static_cast<size_t>(n) * w);
  expr_->Eval(block, sel->data(), n, vals.data());
  uint32_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const char* text =
        reinterpret_cast<const char*>(vals.data() + static_cast<size_t>(i) * w);
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

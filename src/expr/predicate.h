#ifndef UOT_EXPR_PREDICATE_H_
#define UOT_EXPR_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expression.h"

namespace uot {

/// A boolean expression evaluated over a block via selection vectors.
///
/// `Filter` receives a sorted selection vector and removes the rows that do
/// not satisfy the predicate (keeping order). Conjunctions therefore apply
/// cheapest-first filters on ever-shrinking vectors, the standard vectorized
/// style.
class Predicate {
 public:
  virtual ~Predicate() = default;

  virtual void Filter(const Block& block, std::vector<uint32_t>* sel) const = 0;

  virtual std::string ToString() const = 0;

  /// Convenience: selection vector of all rows of `block` passing this
  /// predicate.
  std::vector<uint32_t> FilterAll(const Block& block) const;
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// `left op right`. Two integral operands (INT32, INT64, DATE) compare
/// exactly as integers; a DOUBLE operand makes it a double compare. CHAR
/// operands compare bytewise (both sides must have equal widths).
///
/// Filter allocates nothing. A column against a literal is read through
/// the column's stride and compared in its own type against the hoisted
/// literal (CHAR(<= 8) as one fixed-width word); so are two columns stored
/// alike. Other operands are evaluated into ScratchArena scratch. Every
/// kernel compacts the selection branch-free (`sel[kept] = sel[i]; kept +=
/// cmp`), which never mispredicts at moderate selectivities and keeps row
/// order.
class Comparison final : public Predicate {
 public:
  Comparison(CompareOp op, std::unique_ptr<Scalar> left,
             std::unique_ptr<Scalar> right);

  void Filter(const Block& block, std::vector<uint32_t>* sel) const override;
  std::string ToString() const override;

 private:
  void FilterChar(const Block& block, std::vector<uint32_t>* sel) const;

  const CompareOp op_;
  const std::unique_ptr<Scalar> left_;
  const std::unique_ptr<Scalar> right_;
  const bool is_char_;
  /// Both operands are integers: compare as int64 (exact at any value).
  const bool integral_;
  /// A literal right operand, as the compare sees it: an int64 when
  /// `integral_`, else a double. `narrow_constant_`: the left side is
  /// 4 bytes wide and the constant fits int32, so the compare is int32.
  int64_t int_constant_ = 0;
  double double_constant_ = 0.0;
  bool narrow_constant_ = false;
};

/// AND of child predicates, applied in order.
class Conjunction final : public Predicate {
 public:
  explicit Conjunction(std::vector<std::unique_ptr<Predicate>> children)
      : children_(std::move(children)) {}

  void Filter(const Block& block, std::vector<uint32_t>* sel) const override;
  std::string ToString() const override;

 private:
  const std::vector<std::unique_ptr<Predicate>> children_;
};

/// OR of child predicates (union of their selections).
class Disjunction final : public Predicate {
 public:
  explicit Disjunction(std::vector<std::unique_ptr<Predicate>> children)
      : children_(std::move(children)) {}

  void Filter(const Block& block, std::vector<uint32_t>* sel) const override;
  std::string ToString() const override;

 private:
  const std::vector<std::unique_ptr<Predicate>> children_;
};

/// NOT child.
class Negation final : public Predicate {
 public:
  explicit Negation(std::unique_ptr<Predicate> child)
      : child_(std::move(child)) {}

  void Filter(const Block& block, std::vector<uint32_t>* sel) const override;
  std::string ToString() const override;

 private:
  const std::unique_ptr<Predicate> child_;
};

/// `expr IN (v1, v2, ...)` for small literal sets (linear membership scan).
class InList final : public Predicate {
 public:
  InList(std::unique_ptr<Scalar> expr, std::vector<TypedValue> values);

  void Filter(const Block& block, std::vector<uint32_t>* sel) const override;
  std::string ToString() const override;

 private:
  const std::unique_ptr<Scalar> expr_;
  const std::vector<TypedValue> values_;
  std::vector<std::vector<std::byte>> packed_;  // one packed value each
};

/// SQL LIKE over a CHAR expression, supporting '%' wildcards only (all the
/// paper's TPC-H patterns — 'PROMO%', '%special%requests%' — use only '%').
class Like final : public Predicate {
 public:
  /// `negated` implements NOT LIKE.
  Like(std::unique_ptr<Scalar> expr, std::string pattern, bool negated);

  void Filter(const Block& block, std::vector<uint32_t>* sel) const override;
  std::string ToString() const override;

  /// Exposed for testing: true if `text` (space padding stripped) matches.
  bool Matches(const char* text, size_t len) const;

 private:
  const std::unique_ptr<Scalar> expr_;
  const std::string pattern_;
  const bool negated_;
  bool anchored_start_ = false;
  bool anchored_end_ = false;
  std::vector<std::string> parts_;  // literal segments between '%'s
};

/// Always-true predicate (an unfiltered scan).
class TruePredicate final : public Predicate {
 public:
  void Filter(const Block& block, std::vector<uint32_t>* sel) const override {
    (void)block;
    (void)sel;
  }
  std::string ToString() const override { return "TRUE"; }
};

// ---- convenience factories ----

std::unique_ptr<Predicate> Cmp(CompareOp op, std::unique_ptr<Scalar> l,
                               std::unique_ptr<Scalar> r);
std::unique_ptr<Predicate> And(std::vector<std::unique_ptr<Predicate>> ps);
std::unique_ptr<Predicate> Or(std::vector<std::unique_ptr<Predicate>> ps);
std::unique_ptr<Predicate> Not(std::unique_ptr<Predicate> p);
/// `lo <= expr AND expr <= hi` over a fresh copy of the column reference.
std::unique_ptr<Predicate> BetweenCol(int col, Type type, TypedValue lo,
                                      TypedValue hi);

}  // namespace uot

#endif  // UOT_EXPR_PREDICATE_H_

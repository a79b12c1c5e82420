#ifndef UOT_EXPR_EXPRESSION_H_
#define UOT_EXPR_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/block.h"
#include "types/typed_value.h"

namespace uot {

class ColumnRef;
class Literal;

/// A scalar expression evaluated over the rows of one block.
///
/// Evaluation is vectorized: given a selection vector (row indices into the
/// block), an expression writes one packed value of `result_type()` per
/// selected row into a contiguous output buffer. This is the batch-at-a-time
/// processing style of block-based engines (paper Sections II/III).
class Scalar {
 public:
  virtual ~Scalar() = default;

  /// The (context-free) result type; expressions are bound to their input
  /// schema at plan-construction time.
  virtual Type result_type() const = 0;

  /// Evaluates rows `rows[0..n)` of `block`, writing `n` packed values of
  /// width `result_type().width()` to `out`.
  virtual void Eval(const Block& block, const uint32_t* rows, uint32_t n,
                    std::byte* out) const = 0;

  /// Non-null iff this expression is a bare column reference. A virtual
  /// accessor instead of `dynamic_cast` on the hot EvalAsDouble path: the
  /// RTTI lookup cost scales with class-hierarchy depth, a vtable call is
  /// constant.
  virtual const ColumnRef* as_column_ref() const { return nullptr; }
  /// Non-null iff this expression is a constant.
  virtual const Literal* as_literal() const { return nullptr; }

  /// Structural equality: `other` is the same kind of node over equal
  /// operands, so both evaluate to the same bits on any block. Literals
  /// match on type and packed bytes (0.0 and -0.0 differ); a CASE, whose
  /// condition has no equality, matches only itself.
  virtual bool Equals(const Scalar& other) const = 0;

  virtual std::string ToString() const = 0;
};

/// References column `col` of the input block.
class ColumnRef final : public Scalar {
 public:
  /// `type` must match the input schema's column type.
  ColumnRef(int col, Type type) : col_(col), type_(type) {}

  int col() const { return col_; }
  Type result_type() const override { return type_; }
  void Eval(const Block& block, const uint32_t* rows, uint32_t n,
            std::byte* out) const override;
  const ColumnRef* as_column_ref() const override { return this; }
  bool Equals(const Scalar& other) const override;
  std::string ToString() const override;

 private:
  const int col_;
  const Type type_;
};

/// A constant.
class Literal final : public Scalar {
 public:
  /// `type` controls the packed representation (notably CHAR width).
  Literal(TypedValue value, Type type);

  const TypedValue& value() const { return value_; }
  /// The packed value, `result_type().width()` bytes.
  const std::byte* packed() const { return packed_.data(); }
  Type result_type() const override { return type_; }
  void Eval(const Block& block, const uint32_t* rows, uint32_t n,
            std::byte* out) const override;
  const Literal* as_literal() const override { return this; }
  bool Equals(const Scalar& other) const override;
  std::string ToString() const override;

 private:
  const TypedValue value_;
  const Type type_;
  std::vector<std::byte> packed_;
};

enum class ArithmeticOp : uint8_t { kAdd, kSubtract, kMultiply, kDivide };

/// Binary arithmetic over numeric operands. Results are computed and stored
/// as DOUBLE (sufficient for the paper's workloads, where arithmetic appears
/// only in price expressions such as l_extendedprice * (1 - l_discount)).
/// The other operand is evaluated straight into the output buffer, and a
/// literal operand is one loop constant.
class Arithmetic final : public Scalar {
 public:
  Arithmetic(ArithmeticOp op, std::unique_ptr<Scalar> left,
             std::unique_ptr<Scalar> right);

  ArithmeticOp op() const { return op_; }
  const Scalar& left() const { return *left_; }
  const Scalar& right() const { return *right_; }
  Type result_type() const override { return Type::Double(); }
  void Eval(const Block& block, const uint32_t* rows, uint32_t n,
            std::byte* out) const override;
  bool Equals(const Scalar& other) const override;
  std::string ToString() const override;

 private:
  const ArithmeticOp op_;
  const std::unique_ptr<Scalar> left_;
  const std::unique_ptr<Scalar> right_;
};

class Predicate;  // predicate.h includes this header

/// CASE WHEN <pred> THEN <a> ELSE <b> END over numeric branches (stored as
/// DOUBLE). Enables the TPC-H pivot aggregates, e.g. Q12's
/// sum(case when o_orderpriority in ('1-URGENT','2-HIGH') then 1 else 0).
class CaseWhen final : public Scalar {
 public:
  CaseWhen(std::unique_ptr<Predicate> condition,
           std::unique_ptr<Scalar> then_value,
           std::unique_ptr<Scalar> else_value);
  ~CaseWhen() override;

  Type result_type() const override { return Type::Double(); }
  void Eval(const Block& block, const uint32_t* rows, uint32_t n,
            std::byte* out) const override;
  bool Equals(const Scalar& other) const override { return &other == this; }
  std::string ToString() const override;

 private:
  const std::unique_ptr<Predicate> condition_;
  const std::unique_ptr<Scalar> then_value_;
  const std::unique_ptr<Scalar> else_value_;
};

/// SUBSTRING over a CHAR operand: a fixed `[start, start+len)` byte slice,
/// producing CHAR(len). Covers TPC-H patterns like substring(c_phone, 1, 2)
/// and grouping on priority-class prefixes.
class Substring final : public Scalar {
 public:
  /// `start` is a 0-based byte offset into the operand's fixed-width value.
  Substring(std::unique_ptr<Scalar> child, int start, int len);

  Type result_type() const override {
    return Type::Char(static_cast<uint16_t>(len_));
  }
  void Eval(const Block& block, const uint32_t* rows, uint32_t n,
            std::byte* out) const override;
  bool Equals(const Scalar& other) const override;
  std::string ToString() const override;

 private:
  const std::unique_ptr<Scalar> child_;
  const int start_;
  const int len_;
};

/// EXTRACT(YEAR FROM date_expr): maps a DATE operand to an INT32 year.
/// Years are grouping keys in TPC-H Q7/Q8-style queries.
class ExtractYear final : public Scalar {
 public:
  explicit ExtractYear(std::unique_ptr<Scalar> child);

  Type result_type() const override { return Type::Int32(); }
  void Eval(const Block& block, const uint32_t* rows, uint32_t n,
            std::byte* out) const override;
  bool Equals(const Scalar& other) const override;
  std::string ToString() const override;

 private:
  const std::unique_ptr<Scalar> child_;
};

/// Evaluates any numeric scalar into doubles (widening integral results).
/// Shared by arithmetic, comparisons and aggregates.
void EvalAsDouble(const Scalar& scalar, const Block& block,
                  const uint32_t* rows, uint32_t n, double* out);

/// Numeric scalars compiled into one list of distinct nodes, each evaluated
/// once per batch into doubles. Structurally equal subexpressions are one
/// node, so a column or a product that several scalars read is gathered or
/// computed once. An arithmetic node over non-literal operands reads its
/// operands' nodes, a literal operand is a loop constant, and any other
/// scalar is one node evaluated by EvalAsDouble; every node's values are
/// the bits EvalAsDouble gives for its scalar.
class DoubleProgram {
 public:
  /// Adds `scalar` (numeric; must outlive the program) and returns the
  /// node that computes it.
  uint32_t Add(const Scalar& scalar);

  size_t size() const { return nodes_.size(); }

  /// Evaluates rows `rows[0..n)` of `block`: node k's n values go to
  /// `out + k * n` (`out` holds size() * n doubles).
  void Eval(const Block& block, const uint32_t* rows, uint32_t n,
            double* out) const;

 private:
  struct Node {
    const Scalar* scalar;
    // An arithmetic node's operands: a node index, or -1 for the literal
    // `constant`. Both -1 means the node is evaluated by EvalAsDouble.
    ArithmeticOp op = ArithmeticOp::kAdd;
    int left = -1;
    int right = -1;
    double constant = 0.0;
  };

  std::vector<Node> nodes_;
};

// ---- convenience factories ----

std::unique_ptr<Scalar> Col(int col, Type type);
std::unique_ptr<Scalar> Lit(TypedValue value, Type type);
/// Numeric literal helpers with the natural type.
std::unique_ptr<Scalar> LitInt32(int32_t v);
std::unique_ptr<Scalar> LitInt64(int64_t v);
std::unique_ptr<Scalar> LitDouble(double v);
std::unique_ptr<Scalar> LitDate(int32_t days);
std::unique_ptr<Scalar> Add(std::unique_ptr<Scalar> l,
                            std::unique_ptr<Scalar> r);
std::unique_ptr<Scalar> Sub(std::unique_ptr<Scalar> l,
                            std::unique_ptr<Scalar> r);
std::unique_ptr<Scalar> Mul(std::unique_ptr<Scalar> l,
                            std::unique_ptr<Scalar> r);
std::unique_ptr<Scalar> Div(std::unique_ptr<Scalar> l,
                            std::unique_ptr<Scalar> r);

}  // namespace uot

#endif  // UOT_EXPR_EXPRESSION_H_

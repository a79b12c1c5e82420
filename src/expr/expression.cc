#include "expr/expression.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "expr/predicate.h"
#include "operators/key_util.h"
#include "types/date.h"
#include "util/scratch_arena.h"

namespace uot {

namespace {

/// out[i] = lhs[i] op rhs[i] for i < n, where a null operand is `constant`
/// (at most one is). `out` may be either operand.
void ApplyArithmetic(ArithmeticOp op, const double* lhs, const double* rhs,
                     double constant, uint32_t n, double* out) {
  auto apply = [&](auto fn) {
    if (lhs != nullptr && rhs != nullptr) {
      for (uint32_t i = 0; i < n; ++i) out[i] = fn(lhs[i], rhs[i]);
    } else if (lhs != nullptr) {
      for (uint32_t i = 0; i < n; ++i) out[i] = fn(lhs[i], constant);
    } else {
      for (uint32_t i = 0; i < n; ++i) out[i] = fn(constant, rhs[i]);
    }
  };
  switch (op) {
    case ArithmeticOp::kAdd:
      return apply(std::plus<double>());
    case ArithmeticOp::kSubtract:
      return apply(std::minus<double>());
    case ArithmeticOp::kMultiply:
      return apply(std::multiplies<double>());
    case ArithmeticOp::kDivide:
      return apply(std::divides<double>());
  }
}

}  // namespace

void ColumnRef::Eval(const Block& block, const uint32_t* rows, uint32_t n,
                     std::byte* out) const {
  UOT_DCHECK(block.schema().column(col_).type == type_);
  const ColumnAccess access = block.Column(col_);
  GatherValues(type_.width(), access.base, access.stride, rows, n, out,
               type_.width());
}

bool ColumnRef::Equals(const Scalar& other) const {
  const ColumnRef* ref = other.as_column_ref();
  return ref != nullptr && ref->col_ == col_ && ref->type_ == type_;
}

std::string ColumnRef::ToString() const {
  std::string out = "$";
  out += std::to_string(col_);
  return out;
}

Literal::Literal(TypedValue value, Type type)
    : value_(std::move(value)), type_(type), packed_(type.width()) {
  value_.CopyTo(type_, packed_.data());
}

void Literal::Eval(const Block& block, const uint32_t* rows, uint32_t n,
                   std::byte* out) const {
  (void)block;
  (void)rows;
  const uint16_t w = type_.width();
  for (uint32_t i = 0; i < n; ++i) {
    std::memcpy(out + static_cast<size_t>(i) * w, packed_.data(), w);
  }
}

bool Literal::Equals(const Scalar& other) const {
  const Literal* literal = other.as_literal();
  return literal != nullptr && literal->type_ == type_ &&
         literal->packed_ == packed_;
}

std::string Literal::ToString() const { return value_.ToString(); }

Arithmetic::Arithmetic(ArithmeticOp op, std::unique_ptr<Scalar> left,
                       std::unique_ptr<Scalar> right)
    : op_(op), left_(std::move(left)), right_(std::move(right)) {
  UOT_CHECK(left_->result_type().IsNumeric());
  UOT_CHECK(right_->result_type().IsNumeric());
}

void Arithmetic::Eval(const Block& block, const uint32_t* rows, uint32_t n,
                      std::byte* out) const {
  double* result = reinterpret_cast<double*>(out);
  if (const Literal* literal = right_->as_literal()) {
    EvalAsDouble(*left_, block, rows, n, result);
    ApplyArithmetic(op_, result, nullptr, literal->value().ToDouble(), n,
                    result);
  } else if (const Literal* literal = left_->as_literal()) {
    EvalAsDouble(*right_, block, rows, n, result);
    ApplyArithmetic(op_, nullptr, result, literal->value().ToDouble(), n,
                    result);
  } else {
    ScratchArena& arena = ScratchArena::ForThread();
    ScratchArena::Scope scope(&arena);
    EvalAsDouble(*left_, block, rows, n, result);
    double* rhs = arena.AllocArray<double>(n);
    EvalAsDouble(*right_, block, rows, n, rhs);
    ApplyArithmetic(op_, result, rhs, 0.0, n, result);
  }
}

bool Arithmetic::Equals(const Scalar& other) const {
  const auto* arith = dynamic_cast<const Arithmetic*>(&other);
  return arith != nullptr && arith->op_ == op_ &&
         arith->left_->Equals(*left_) && arith->right_->Equals(*right_);
}

std::string Arithmetic::ToString() const {
  static constexpr const char* kOps[] = {" + ", " - ", " * ", " / "};
  std::string out = "(";
  out += left_->ToString();
  out += kOps[static_cast<int>(op_)];
  out += right_->ToString();
  out += ')';
  return out;
}

CaseWhen::CaseWhen(std::unique_ptr<Predicate> condition,
                   std::unique_ptr<Scalar> then_value,
                   std::unique_ptr<Scalar> else_value)
    : condition_(std::move(condition)),
      then_value_(std::move(then_value)),
      else_value_(std::move(else_value)) {
  UOT_CHECK(then_value_->result_type().IsNumeric());
  UOT_CHECK(else_value_->result_type().IsNumeric());
}

CaseWhen::~CaseWhen() = default;

void CaseWhen::Eval(const Block& block, const uint32_t* rows, uint32_t n,
                    std::byte* out) const {
  // Evaluate both branches, then overwrite the matching rows with the THEN
  // values (matching rows come back as a sorted subsequence of `rows`).
  double* result = reinterpret_cast<double*>(out);
  EvalAsDouble(*else_value_, block, rows, n, result);
  // Filter requires a real vector (in-place compaction), so the selection
  // scratch is a pooled thread-local vector rather than arena bytes; the
  // pool hands nested evaluations distinct vectors.
  ScratchSelVector matched;
  matched->assign(rows, rows + n);
  condition_->Filter(block, matched.get());
  if (matched->empty()) return;
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  double* then_vals = arena.AllocArray<double>(matched->size());
  EvalAsDouble(*then_value_, block, matched->data(),
               static_cast<uint32_t>(matched->size()), then_vals);
  size_t m = 0;
  for (uint32_t i = 0; i < n && m < matched->size(); ++i) {
    if (rows[i] == (*matched)[m]) {
      result[i] = then_vals[m];
      ++m;
    }
  }
  UOT_DCHECK(m == matched->size());
}

std::string CaseWhen::ToString() const {
  return "CASE WHEN " + condition_->ToString() + " THEN " +
         then_value_->ToString() + " ELSE " + else_value_->ToString() +
         " END";
}

Substring::Substring(std::unique_ptr<Scalar> child, int start, int len)
    : child_(std::move(child)), start_(start), len_(len) {
  UOT_CHECK(child_->result_type().id() == TypeId::kChar);
  UOT_CHECK(start_ >= 0 && len_ > 0);
  UOT_CHECK(start_ + len_ <= child_->result_type().width());
}

void Substring::Eval(const Block& block, const uint32_t* rows, uint32_t n,
                     std::byte* out) const {
  const uint16_t w = child_->result_type().width();
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  std::byte* tmp = arena.Alloc(static_cast<size_t>(n) * w);
  child_->Eval(block, rows, n, tmp);
  for (uint32_t i = 0; i < n; ++i) {
    std::memcpy(out + static_cast<size_t>(i) * len_,
                tmp + static_cast<size_t>(i) * w + start_,
                static_cast<size_t>(len_));
  }
}

bool Substring::Equals(const Scalar& other) const {
  const auto* sub = dynamic_cast<const Substring*>(&other);
  return sub != nullptr && sub->start_ == start_ && sub->len_ == len_ &&
         sub->child_->Equals(*child_);
}

std::string Substring::ToString() const {
  return "SUBSTRING(" + child_->ToString() + ", " +
         std::to_string(start_ + 1) + ", " + std::to_string(len_) + ")";
}

ExtractYear::ExtractYear(std::unique_ptr<Scalar> child)
    : child_(std::move(child)) {
  UOT_CHECK(child_->result_type().id() == TypeId::kDate);
}

void ExtractYear::Eval(const Block& block, const uint32_t* rows, uint32_t n,
                       std::byte* out) const {
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  std::byte* dates = arena.Alloc(static_cast<size_t>(n) * 4);
  child_->Eval(block, rows, n, dates);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t days;
    std::memcpy(&days, dates + i * 4u, 4);
    int y, m, d;
    CivilFromDays(days, &y, &m, &d);
    const int32_t year = y;
    std::memcpy(out + i * 4u, &year, 4);
  }
}

bool ExtractYear::Equals(const Scalar& other) const {
  const auto* year = dynamic_cast<const ExtractYear*>(&other);
  return year != nullptr && year->child_->Equals(*child_);
}

std::string ExtractYear::ToString() const {
  return "YEAR(" + child_->ToString() + ")";
}

void EvalAsDouble(const Scalar& scalar, const Block& block,
                  const uint32_t* rows, uint32_t n, double* out) {
  const Type type = scalar.result_type();
  UOT_CHECK(type.IsNumeric());
  if (type.id() == TypeId::kDouble) {
    scalar.Eval(block, rows, n, reinterpret_cast<std::byte*>(out));
    return;
  }
  // Fast path: direct strided widening for column references avoids the
  // intermediate packed buffer.
  if (const ColumnRef* ref = scalar.as_column_ref()) {
    const ColumnAccess access = block.Column(ref->col());
    if (type.width() == 4) {
      for (uint32_t i = 0; i < n; ++i) {
        int32_t v;
        std::memcpy(&v, access.at(rows[i]), 4);
        out[i] = static_cast<double>(v);
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        int64_t v;
        std::memcpy(&v, access.at(rows[i]), 8);
        out[i] = static_cast<double>(v);
      }
    }
    return;
  }
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  std::byte* tmp = arena.Alloc(static_cast<size_t>(n) * type.width());
  scalar.Eval(block, rows, n, tmp);
  if (type.width() == 4) {
    for (uint32_t i = 0; i < n; ++i) {
      int32_t v;
      std::memcpy(&v, tmp + i * 4u, 4);
      out[i] = static_cast<double>(v);
    }
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      int64_t v;
      std::memcpy(&v, tmp + i * 8u, 8);
      out[i] = static_cast<double>(v);
    }
  }
}

uint32_t DoubleProgram::Add(const Scalar& scalar) {
  UOT_CHECK(scalar.result_type().IsNumeric());
  for (size_t k = 0; k < nodes_.size(); ++k) {
    if (nodes_[k].scalar->Equals(scalar)) return static_cast<uint32_t>(k);
  }
  Node node{&scalar};
  const auto* arith = dynamic_cast<const Arithmetic*>(&scalar);
  const bool literals = arith != nullptr &&
                        arith->left().as_literal() != nullptr &&
                        arith->right().as_literal() != nullptr;
  if (arith != nullptr && !literals) {
    // As in Arithmetic::Eval, a literal operand is a constant.
    node.op = arith->op();
    if (const Literal* literal = arith->right().as_literal()) {
      node.left = static_cast<int>(Add(arith->left()));
      node.constant = literal->value().ToDouble();
    } else if (const Literal* literal = arith->left().as_literal()) {
      node.right = static_cast<int>(Add(arith->right()));
      node.constant = literal->value().ToDouble();
    } else {
      node.left = static_cast<int>(Add(arith->left()));
      node.right = static_cast<int>(Add(arith->right()));
    }
  }
  nodes_.push_back(node);
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void DoubleProgram::Eval(const Block& block, const uint32_t* rows, uint32_t n,
                         double* out) const {
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const Node& node = nodes_[k];
    double* values = out + k * n;
    if (node.left < 0 && node.right < 0) {
      EvalAsDouble(*node.scalar, block, rows, n, values);
    } else {
      const double* lhs =
          node.left < 0 ? nullptr : out + static_cast<size_t>(node.left) * n;
      const double* rhs =
          node.right < 0 ? nullptr : out + static_cast<size_t>(node.right) * n;
      ApplyArithmetic(node.op, lhs, rhs, node.constant, n, values);
    }
  }
}

std::unique_ptr<Scalar> Col(int col, Type type) {
  return std::make_unique<ColumnRef>(col, type);
}
std::unique_ptr<Scalar> Lit(TypedValue value, Type type) {
  return std::make_unique<Literal>(std::move(value), type);
}
std::unique_ptr<Scalar> LitInt32(int32_t v) {
  return Lit(TypedValue::Int32(v), Type::Int32());
}
std::unique_ptr<Scalar> LitInt64(int64_t v) {
  return Lit(TypedValue::Int64(v), Type::Int64());
}
std::unique_ptr<Scalar> LitDouble(double v) {
  return Lit(TypedValue::Double(v), Type::Double());
}
std::unique_ptr<Scalar> LitDate(int32_t days) {
  return Lit(TypedValue::Date(days), Type::Date());
}
std::unique_ptr<Scalar> Add(std::unique_ptr<Scalar> l,
                            std::unique_ptr<Scalar> r) {
  return std::make_unique<Arithmetic>(ArithmeticOp::kAdd, std::move(l),
                                      std::move(r));
}
std::unique_ptr<Scalar> Sub(std::unique_ptr<Scalar> l,
                            std::unique_ptr<Scalar> r) {
  return std::make_unique<Arithmetic>(ArithmeticOp::kSubtract, std::move(l),
                                      std::move(r));
}
std::unique_ptr<Scalar> Mul(std::unique_ptr<Scalar> l,
                            std::unique_ptr<Scalar> r) {
  return std::make_unique<Arithmetic>(ArithmeticOp::kMultiply, std::move(l),
                                      std::move(r));
}
std::unique_ptr<Scalar> Div(std::unique_ptr<Scalar> l,
                            std::unique_ptr<Scalar> r) {
  return std::make_unique<Arithmetic>(ArithmeticOp::kDivide, std::move(l),
                                      std::move(r));
}

}  // namespace uot

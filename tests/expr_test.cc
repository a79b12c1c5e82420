#include <gtest/gtest.h>

#include <cstring>

#include "expr/expression.h"
#include "expr/predicate.h"
#include "expr/projection.h"
#include "operators/numeric_util.h"
#include "storage/insert_destination.h"
#include "storage/storage_manager.h"
#include "types/date.h"
#include "types/row_builder.h"

namespace uot {
namespace {

// A block of (id INT32, price DOUBLE, day DATE, name CHAR(8), code CHAR(5)).
class ExprTest : public ::testing::TestWithParam<Layout> {
 protected:
  ExprTest()
      : schema_({{"id", Type::Int32()},
                 {"price", Type::Double()},
                 {"day", Type::Date()},
                 {"name", Type::Char(8)},
                 {"code", Type::Char(5)}}),
        block_(1, &schema_, GetParam(), 4096) {
    RowBuilder row(&schema_);
    const char* names[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
    for (int i = 0; i < 20; ++i) {
      row.SetInt32(0, i);
      row.SetDouble(1, 10.0 * i);
      row.SetDate(2, MakeDate(1995, 1, 1) + i);
      row.SetChar(3, names[i % 5]);
      row.SetChar(4, std::string("c").append(std::to_string(i % 13)));
      block_.AppendRow(row.data());
    }
  }

  std::vector<double> EvalDoubles(const Scalar& s) {
    std::vector<uint32_t> rows(block_.num_rows());
    for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
    std::vector<double> out(rows.size());
    EvalAsDouble(s, block_, rows.data(), static_cast<uint32_t>(rows.size()),
                 out.data());
    return out;
  }

  Schema schema_;
  Block block_;
};

TEST_P(ExprTest, ColumnRefGathersValues) {
  auto col = Col(0, Type::Int32());
  const auto vals = EvalDoubles(*col);
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_DOUBLE_EQ(vals[i], static_cast<double>(i));
  }
}

TEST_P(ExprTest, ColumnRefSubsetOfRows) {
  auto col = Col(1, Type::Double());
  uint32_t rows[] = {3, 7, 19};
  double out[3];
  col->Eval(block_, rows, 3, reinterpret_cast<std::byte*>(out));
  EXPECT_DOUBLE_EQ(out[0], 30.0);
  EXPECT_DOUBLE_EQ(out[1], 70.0);
  EXPECT_DOUBLE_EQ(out[2], 190.0);
}

TEST_P(ExprTest, LiteralBroadcasts) {
  auto lit = LitDouble(4.5);
  const auto vals = EvalDoubles(*lit);
  for (double v : vals) EXPECT_DOUBLE_EQ(v, 4.5);
}

TEST_P(ExprTest, ArithmeticRevenueExpression) {
  // price * (1 - 0.1)
  auto expr = Mul(Col(1, Type::Double()),
                  Sub(LitDouble(1.0), LitDouble(0.1)));
  const auto vals = EvalDoubles(*expr);
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_NEAR(vals[i], 10.0 * i * 0.9, 1e-9);
  }
}

TEST_P(ExprTest, ArithmeticAllOps) {
  auto add = EvalDoubles(*Add(Col(0, Type::Int32()), LitDouble(1.0)));
  auto div = EvalDoubles(*Div(Col(1, Type::Double()), LitDouble(2.0)));
  EXPECT_DOUBLE_EQ(add[4], 5.0);
  EXPECT_DOUBLE_EQ(div[4], 20.0);
}

TEST_P(ExprTest, ExtractYearFromDate) {
  auto year = std::make_unique<ExtractYear>(Col(2, Type::Date()));
  EXPECT_EQ(year->result_type(), Type::Int32());
  const auto vals = EvalDoubles(*year);
  EXPECT_DOUBLE_EQ(vals[0], 1995.0);
  EXPECT_DOUBLE_EQ(vals[19], 1995.0);
}

TEST_P(ExprTest, SubstringSlicesChars) {
  auto sub = std::make_unique<Substring>(Col(3, Type::Char(8)), 0, 2);
  EXPECT_EQ(sub->result_type(), Type::Char(2));
  uint32_t rows[] = {0, 1};
  std::byte out[4];
  sub->Eval(block_, rows, 2, out);
  EXPECT_EQ(std::memcmp(out, "al", 2), 0);
  EXPECT_EQ(std::memcmp(out + 2, "be", 2), 0);
}

TEST_P(ExprTest, FilterShrinksExistingSelection) {
  auto pred = Cmp(CompareOp::kLt, Col(0, Type::Int32()),
                  Lit(TypedValue::Int32(10), Type::Int32()));
  std::vector<uint32_t> sel = {2, 8, 9, 15, 19};
  pred->Filter(block_, &sel);
  EXPECT_EQ(sel, (std::vector<uint32_t>{2, 8, 9}));
}

TEST_P(ExprTest, ComparisonOperatorsNumeric) {
  struct Case {
    CompareOp op;
    size_t expected;
  };
  for (const Case& c : {Case{CompareOp::kLt, 5}, Case{CompareOp::kLe, 6},
                        Case{CompareOp::kGt, 14}, Case{CompareOp::kGe, 15},
                        Case{CompareOp::kEq, 1}, Case{CompareOp::kNe, 19}}) {
    auto pred = Cmp(c.op, Col(0, Type::Int32()),
                    Lit(TypedValue::Int32(5), Type::Int32()));
    EXPECT_EQ(pred->FilterAll(block_).size(), c.expected)
        << "op " << static_cast<int>(c.op);
  }
}

TEST_P(ExprTest, ComparisonOnDates) {
  auto pred = Cmp(CompareOp::kGe, Col(2, Type::Date()),
                  Lit(TypedValue::Date(MakeDate(1995, 1, 11)), Type::Date()));
  EXPECT_EQ(pred->FilterAll(block_).size(), 10u);
}

TEST_P(ExprTest, ComparisonOnChars) {
  auto pred = Cmp(CompareOp::kEq, Col(3, Type::Char(8)),
                  Lit(TypedValue::Char("beta"), Type::Char(8)));
  const auto sel = pred->FilterAll(block_);
  ASSERT_EQ(sel.size(), 4u);
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[1], 6u);
}

TEST_P(ExprTest, ColumnVsColumnComparison) {
  // id*10 == price is true everywhere; id > price/10 nowhere.
  auto eq = Cmp(CompareOp::kEq,
                Mul(Col(0, Type::Int32()), LitDouble(10.0)),
                Col(1, Type::Double()));
  EXPECT_EQ(eq->FilterAll(block_).size(), 20u);
}

TEST_P(ExprTest, ConjunctionShortCircuitsToIntersection) {
  std::vector<std::unique_ptr<Predicate>> parts;
  parts.push_back(Cmp(CompareOp::kGe, Col(0, Type::Int32()),
                      Lit(TypedValue::Int32(5), Type::Int32())));
  parts.push_back(Cmp(CompareOp::kLt, Col(0, Type::Int32()),
                      Lit(TypedValue::Int32(15), Type::Int32())));
  auto pred = And(std::move(parts));
  const auto sel = pred->FilterAll(block_);
  ASSERT_EQ(sel.size(), 10u);
  EXPECT_EQ(sel.front(), 5u);
  EXPECT_EQ(sel.back(), 14u);
}

TEST_P(ExprTest, DisjunctionUnionsSorted) {
  std::vector<std::unique_ptr<Predicate>> parts;
  parts.push_back(Cmp(CompareOp::kLt, Col(0, Type::Int32()),
                      Lit(TypedValue::Int32(3), Type::Int32())));
  parts.push_back(Cmp(CompareOp::kGe, Col(0, Type::Int32()),
                      Lit(TypedValue::Int32(18), Type::Int32())));
  // Overlapping clause to test dedup.
  parts.push_back(Cmp(CompareOp::kLt, Col(0, Type::Int32()),
                      Lit(TypedValue::Int32(2), Type::Int32())));
  auto pred = Or(std::move(parts));
  const auto sel = pred->FilterAll(block_);
  ASSERT_EQ(sel.size(), 5u);
  EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end()));
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[4], 19u);
}

TEST_P(ExprTest, NegationComplements) {
  auto pred = Not(Cmp(CompareOp::kLt, Col(0, Type::Int32()),
                      Lit(TypedValue::Int32(5), Type::Int32())));
  const auto sel = pred->FilterAll(block_);
  ASSERT_EQ(sel.size(), 15u);
  EXPECT_EQ(sel.front(), 5u);
}

TEST_P(ExprTest, InListOnChars) {
  auto pred = std::make_unique<InList>(
      Col(3, Type::Char(8)),
      std::vector<TypedValue>{TypedValue::Char("alpha"),
                              TypedValue::Char("gamma")});
  EXPECT_EQ(pred->FilterAll(block_).size(), 8u);
}

TEST_P(ExprTest, InListOnInts) {
  auto pred = std::make_unique<InList>(
      Col(0, Type::Int32()),
      std::vector<TypedValue>{TypedValue::Int32(2), TypedValue::Int32(4),
                              TypedValue::Int32(100)});
  EXPECT_EQ(pred->FilterAll(block_).size(), 2u);
}

TEST_P(ExprTest, BetweenColHelper) {
  auto pred = BetweenCol(0, Type::Int32(), TypedValue::Int32(3),
                         TypedValue::Int32(6));
  EXPECT_EQ(pred->FilterAll(block_).size(), 4u);
}

TEST_P(ExprTest, TruePredicateKeepsAll) {
  TruePredicate pred;
  EXPECT_EQ(pred.FilterAll(block_).size(), block_.num_rows());
}

TEST_P(ExprTest, LikePrefix) {
  auto pred = std::make_unique<Like>(Col(3, Type::Char(8)), "ga%", false);
  EXPECT_EQ(pred->FilterAll(block_).size(), 4u);  // gamma at 2,7,12,17
}

TEST_P(ExprTest, NotLikeInverts) {
  auto pred = std::make_unique<Like>(Col(3, Type::Char(8)), "ga%", true);
  EXPECT_EQ(pred->FilterAll(block_).size(), 16u);
}

TEST(LikeMatcherTest, PatternSemantics) {
  auto like = [](const std::string& pattern, const std::string& text) {
    Like l(Col(0, Type::Char(32)), pattern, false);
    return l.Matches(text.c_str(), text.size());
  };
  EXPECT_TRUE(like("PROMO%", "PROMO BRUSHED TIN"));
  EXPECT_FALSE(like("PROMO%", "STANDARD PROMO TIN"));
  EXPECT_TRUE(like("%special%requests%", "special handling requests"));
  EXPECT_TRUE(like("%special%requests%", "xx special yy requests zz"));
  EXPECT_FALSE(like("%special%requests%", "requests then special"));
  EXPECT_TRUE(like("%TIN", "BRUSHED TIN"));
  EXPECT_FALSE(like("%TIN", "TIN PLATED"));
  EXPECT_TRUE(like("%%", "anything"));
  EXPECT_TRUE(like("abc", "abc"));
  EXPECT_FALSE(like("abc", "abcd"));
  // Trailing-space padding is ignored.
  EXPECT_TRUE(like("%TIN", "BRUSHED TIN      "));
}

TEST_P(ExprTest, ProjectionMaterializesExpressions) {
  StorageManager storage;
  std::vector<std::unique_ptr<Scalar>> exprs;
  exprs.push_back(Col(0, Type::Int32()));
  exprs.push_back(Mul(Col(1, Type::Double()), LitDouble(2.0)));
  Projection proj(std::move(exprs), {"id", "double_price"});
  EXPECT_EQ(proj.output_schema().ToString(),
            "(id INT32, double_price DOUBLE)");

  Table out("out", proj.output_schema(), Layout::kRowStore, 4096, &storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  {
    InsertDestination::Writer writer(&dest);
    std::vector<uint32_t> rows = {1, 3, 5};
    proj.MaterializeInto(block_, rows, &writer);
  }
  dest.Flush();
  ASSERT_EQ(out.NumRows(), 3u);
  EXPECT_EQ(out.GetValue(0, 0).AsInt32(), 1);
  EXPECT_DOUBLE_EQ(out.GetValue(1, 1).AsDouble(), 60.0);
  EXPECT_DOUBLE_EQ(out.GetValue(2, 1).AsDouble(), 100.0);
}

// --- Projection::AppendRows against a one-row packed-row oracle ---------

// A projection covering every write path of AppendRows: bare column
// references of widths 4 and 8 and an odd CHAR(n) width, and computed
// Arithmetic, Substring and ExtractYear expressions.
std::unique_ptr<Projection> WidePassProjection() {
  std::vector<std::unique_ptr<Scalar>> exprs;
  exprs.push_back(Col(4, Type::Char(5)));
  exprs.push_back(Col(0, Type::Int32()));
  exprs.push_back(Mul(Col(1, Type::Double()), LitDouble(0.5)));
  exprs.push_back(std::make_unique<Substring>(Col(3, Type::Char(8)), 1, 3));
  exprs.push_back(Col(1, Type::Double()));
  exprs.push_back(std::make_unique<ExtractYear>(Col(2, Type::Date())));
  exprs.push_back(Col(2, Type::Date()));
  return std::make_unique<Projection>(
      std::move(exprs),
      std::vector<std::string>{"code", "id", "half", "sub", "price", "year",
                               "day"});
}

// The reference: evaluates every expression one row at a time and stitches
// a packed row per selected row.
std::string OneRowOracle(const Projection& proj, const Block& block,
                         const std::vector<uint32_t>& rows) {
  const Schema& schema = proj.output_schema();
  std::string out;
  std::vector<std::byte> row(schema.row_width());
  for (const uint32_t r : rows) {
    for (int e = 0; e < proj.num_exprs(); ++e) {
      std::vector<std::byte> value(schema.column(e).type.width());
      proj.expr(e).Eval(block, &r, 1, value.data());
      std::memcpy(row.data() + schema.offset(e), value.data(), value.size());
    }
    out.append(reinterpret_cast<const char*>(row.data()), row.size());
  }
  return out;
}

std::string PackedRows(const Block& block, uint32_t first_row) {
  std::string out;
  std::vector<std::byte> row(block.schema().row_width());
  for (uint32_t r = first_row; r < block.num_rows(); ++r) {
    block.GetRow(r, row.data());
    out.append(reinterpret_cast<const char*>(row.data()), row.size());
  }
  return out;
}

TEST_P(ExprTest, AppendRowsMatchesOneRowOracleInBothOutputLayouts) {
  auto proj = WidePassProjection();
  // Out of order and repeated rows are allowed.
  const std::vector<uint32_t> rows = {0, 3, 6, 9, 12, 15, 18, 19, 3};
  const std::vector<uint32_t> first = {5};
  for (const Layout out_layout : {Layout::kRowStore, Layout::kColumnStore}) {
    // A block that already holds one row: AppendRows writes after it.
    Block out(2, &proj->output_schema(), out_layout, 4096);
    proj->AppendRows(block_, first.data(), 1, &out);
    proj->AppendRows(block_, rows.data(), static_cast<uint32_t>(rows.size()),
                     &out);
    ASSERT_EQ(out.num_rows(), rows.size() + 1);
    EXPECT_EQ(PackedRows(out, 0),
              OneRowOracle(*proj, block_, first) +
                  OneRowOracle(*proj, block_, rows))
        << LayoutName(out_layout);
  }
}

TEST_P(ExprTest, AppendRowsFillsOutputBlocksMidSelection) {
  auto proj = WidePassProjection();
  const std::vector<uint32_t> head = {1, 2};
  const std::vector<uint32_t> tail = {4, 5, 7, 8, 10, 11, 13, 14, 16, 17};
  for (const Layout out_layout : {Layout::kRowStore, Layout::kColumnStore}) {
    StorageManager storage;
    // Three rows per output block: the 12 rows span four blocks, and the
    // second selection starts in a block the first left one row free.
    Table out("out", proj->output_schema(), out_layout,
              3 * proj->output_schema().row_width(), &storage,
              MemoryCategory::kTemporaryTable);
    InsertDestination dest(&storage, &out, nullptr);
    {
      InsertDestination::Writer writer(&dest);
      proj->MaterializeInto(block_, head, &writer);
      proj->MaterializeInto(block_, tail, &writer);
    }
    dest.Flush();
    ASSERT_EQ(out.blocks().size(), 4u);
    std::string got;
    for (const Block* b : out.blocks()) got += PackedRows(*b, 0);
    EXPECT_EQ(got, OneRowOracle(*proj, block_, head) +
                       OneRowOracle(*proj, block_, tail))
        << LayoutName(out_layout);
  }
}

TEST_P(ExprTest, AppendRowsOfEmptySelectionWritesNothing) {
  auto proj = WidePassProjection();
  StorageManager storage;
  Table out("out", proj->output_schema(), Layout::kRowStore, 4096, &storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  {
    InsertDestination::Writer writer(&dest);
    proj->MaterializeInto(block_, {}, &writer);
  }
  dest.Flush();
  EXPECT_EQ(out.NumRows(), 0u);
  Block block(2, &proj->output_schema(), Layout::kColumnStore, 4096);
  proj->AppendRows(block_, nullptr, 0, &block);
  EXPECT_TRUE(block.Empty());
}

TEST_P(ExprTest, IdentityProjectionPreservesNames) {
  auto proj = Projection::Identity(schema_, {3, 0});
  EXPECT_EQ(proj->output_schema().column(0).name, "name");
  EXPECT_EQ(proj->output_schema().column(1).name, "id");
  EXPECT_EQ(proj->output_schema().row_width(), 12u);
}

TEST_P(ExprTest, CaseWhenBlendsBranches) {
  // CASE WHEN id < 10 THEN price ELSE -1 END
  auto expr = std::make_unique<CaseWhen>(
      Cmp(CompareOp::kLt, Col(0, Type::Int32()),
          Lit(TypedValue::Int32(10), Type::Int32())),
      Col(1, Type::Double()), LitDouble(-1.0));
  const auto vals = EvalDoubles(*expr);
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i < 10) {
      EXPECT_DOUBLE_EQ(vals[i], 10.0 * i);
    } else {
      EXPECT_DOUBLE_EQ(vals[i], -1.0);
    }
  }
}

TEST_P(ExprTest, CaseWhenAllOrNothing) {
  auto all = std::make_unique<CaseWhen>(std::make_unique<TruePredicate>(),
                                        LitDouble(1.0), LitDouble(0.0));
  for (double v : EvalDoubles(*all)) EXPECT_DOUBLE_EQ(v, 1.0);
  auto none = std::make_unique<CaseWhen>(
      Cmp(CompareOp::kGt, Col(0, Type::Int32()),
          Lit(TypedValue::Int32(1000), Type::Int32())),
      LitDouble(1.0), LitDouble(0.0));
  for (double v : EvalDoubles(*none)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_P(ExprTest, CaseWhenOnRowSubset) {
  auto expr = std::make_unique<CaseWhen>(
      Cmp(CompareOp::kEq, Col(3, Type::Char(8)),
          Lit(TypedValue::Char("beta"), Type::Char(8))),
      LitDouble(100.0), Col(0, Type::Int32()));
  uint32_t rows[] = {1, 2, 6, 7};  // beta at 1 and 6
  double out[4];
  expr->Eval(block_, rows, 4, reinterpret_cast<std::byte*>(out));
  EXPECT_DOUBLE_EQ(out[0], 100.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_DOUBLE_EQ(out[2], 100.0);
  EXPECT_DOUBLE_EQ(out[3], 7.0);
}

/// Nested CASE WHEN inside a predicate inside another CASE WHEN: the
/// deepest recursion the expression scratch (thread-local arena scopes and
/// pooled selection vectors) must survive without the levels clobbering
/// each other's buffers.
TEST_P(ExprTest, NestedCaseWhenRecursionKeepsScratchIntact) {
  // inner = CASE WHEN id < 10 THEN 1 ELSE 0 END
  auto inner = std::make_unique<CaseWhen>(
      Cmp(CompareOp::kLt, Col(0, Type::Int32()),
          Lit(TypedValue::Int32(10), Type::Int32())),
      LitDouble(1.0), LitDouble(0.0));
  // outer = CASE WHEN inner > 0.5 THEN price + 1 ELSE -price END
  auto expr = std::make_unique<CaseWhen>(
      Cmp(CompareOp::kGt, std::move(inner), LitDouble(0.5)),
      Add(Col(1, Type::Double()), LitDouble(1.0)),
      Sub(LitDouble(0.0), Col(1, Type::Double())));
  const auto vals = EvalDoubles(*expr);
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i < 10) {
      EXPECT_DOUBLE_EQ(vals[i], 10.0 * i + 1.0);
    } else {
      EXPECT_DOUBLE_EQ(vals[i], -10.0 * static_cast<double>(i));
    }
  }
}

TEST_P(ExprTest, AsColumnRefIdentifiesBareColumns) {
  auto col = Col(2, Type::Date());
  ASSERT_NE(col->as_column_ref(), nullptr);
  EXPECT_EQ(col->as_column_ref()->col(), 2);
  auto lit = LitDouble(1.0);
  EXPECT_EQ(lit->as_column_ref(), nullptr);
  auto arith = Add(Col(0, Type::Int32()), LitDouble(1.0));
  EXPECT_EQ(arith->as_column_ref(), nullptr);
}

TEST(ScalarEqualsTest, EqualTreesMatchAndAnyDifferenceDoesNot) {
  // Two separately built copies of Q1's sum_charge input are equal, both
  // ways, as are their subtrees.
  auto charge = [] {
    return Mul(Mul(Col(1, Type::Double()),
                   Sub(LitDouble(1.0), Col(2, Type::Double()))),
               Add(LitDouble(1.0), Col(3, Type::Double())));
  };
  const auto a = charge();
  const auto b = charge();
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_TRUE(b->Equals(*a));
  EXPECT_TRUE(a->Equals(*a));
  EXPECT_FALSE(a->Equals(*Mul(Col(1, Type::Double()),
                              Sub(LitDouble(1.0), Col(2, Type::Double())))));

  // Literals: the same type and value, and nothing else.
  EXPECT_TRUE(LitDouble(1.0)->Equals(*LitDouble(1.0)));
  EXPECT_TRUE(LitInt32(7)->Equals(*LitInt32(7)));
  EXPECT_FALSE(LitDouble(1.0)->Equals(*LitDouble(2.0)));
  EXPECT_FALSE(LitDouble(0.0)->Equals(*LitDouble(-0.0)));
  EXPECT_FALSE(LitInt32(1)->Equals(*LitDouble(1.0)));
  EXPECT_FALSE(LitInt32(1)->Equals(*LitInt64(1)));
  EXPECT_FALSE(LitInt32(9000)->Equals(*LitDate(9000)));
  EXPECT_FALSE(Lit(TypedValue::Char("ab"), Type::Char(2))
                   ->Equals(*Lit(TypedValue::Char("ab"), Type::Char(3))));
  EXPECT_FALSE(LitDouble(1.0)->Equals(*Col(1, Type::Double())));

  // Columns: the same index and type.
  EXPECT_TRUE(Col(2, Type::Int32())->Equals(*Col(2, Type::Int32())));
  EXPECT_FALSE(Col(2, Type::Int32())->Equals(*Col(3, Type::Int32())));
  EXPECT_FALSE(Col(2, Type::Int32())->Equals(*Col(2, Type::Int64())));
  EXPECT_FALSE(Col(1, Type::Double())->Equals(*LitDouble(1.0)));

  // Arithmetic: the same operator over equal operands, in order.
  auto x = [] { return Col(1, Type::Double()); };
  auto y = [] { return Col(2, Type::Double()); };
  EXPECT_TRUE(Sub(x(), y())->Equals(*Sub(x(), y())));
  EXPECT_FALSE(Sub(x(), y())->Equals(*Sub(y(), x())));
  EXPECT_FALSE(Sub(x(), y())->Equals(*Add(x(), y())));
  EXPECT_FALSE(Sub(x(), y())->Equals(*Sub(x(), LitDouble(1.0))));

  // Unary nodes compare their parameters and operand.
  auto sub = [](int start, int col) {
    return std::make_unique<Substring>(Col(col, Type::Char(8)), start, 2);
  };
  EXPECT_TRUE(sub(0, 3)->Equals(*sub(0, 3)));
  EXPECT_FALSE(sub(0, 3)->Equals(*sub(1, 3)));
  EXPECT_FALSE(sub(0, 3)->Equals(*sub(0, 4)));
  auto year = [](int col) {
    return std::make_unique<ExtractYear>(Col(col, Type::Date()));
  };
  EXPECT_TRUE(year(2)->Equals(*year(2)));
  EXPECT_FALSE(year(2)->Equals(*year(5)));

  // A CASE has no structural equality: it equals only itself.
  auto pivot = [] {
    return std::make_unique<CaseWhen>(
        Cmp(CompareOp::kLt, Col(0, Type::Int32()), LitInt32(5)),
        LitDouble(1.0), LitDouble(0.0));
  };
  const auto c = pivot();
  EXPECT_TRUE(c->Equals(*c));
  EXPECT_FALSE(c->Equals(*pivot()));
}

TEST_P(ExprTest, DoubleProgramSharesNodesAndMatchesEvalAsDouble) {
  // Q1-shaped inputs over (id INT32, price DOUBLE): price, the discounted
  // price and the charge share the price and discount nodes; a second copy
  // of the discounted price is the same node.
  auto price = [] { return Col(1, Type::Double()); };
  auto disc_price = [&] {
    return Mul(price(), Sub(LitDouble(1.0),
                            Div(Col(0, Type::Int32()), LitDouble(100.0))));
  };
  std::vector<std::unique_ptr<Scalar>> exprs;
  exprs.push_back(price());
  exprs.push_back(disc_price());
  exprs.push_back(Mul(disc_price(), Add(LitDouble(1.0), price())));
  exprs.push_back(disc_price());
  exprs.push_back(LitInt32(3));
  DoubleProgram program;
  std::vector<uint32_t> nodes;
  for (const auto& e : exprs) nodes.push_back(program.Add(*e));
  // price, id, id / 100, 1 - id / 100, disc_price, 1 + price, charge, 3.
  EXPECT_EQ(program.size(), 8u);
  EXPECT_EQ(nodes[3], nodes[1]);

  const uint32_t n = static_cast<uint32_t>(block_.num_rows());
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < n; i += 2) rows.push_back(i);
  const uint32_t m = static_cast<uint32_t>(rows.size());
  std::vector<double> values(program.size() * m);
  program.Eval(block_, rows.data(), m, values.data());
  for (size_t e = 0; e < exprs.size(); ++e) {
    std::vector<double> expected(m);
    EvalAsDouble(*exprs[e], block_, rows.data(), m, expected.data());
    EXPECT_EQ(std::memcmp(values.data() + nodes[e] * m, expected.data(),
                          m * sizeof(double)),
              0)
        << exprs[e]->ToString();
  }
}

TEST_P(ExprTest, ComparisonsMatchRowByRowReference) {
  // The branch-free (auto-vectorizable) compare kernel must keep exactly
  // the rows a plain row-by-row loop keeps, in the same order, for every
  // operator, against both a literal (hoisted-constant path) and a column
  // (vector path) right operand, on full and pre-shrunk selections.
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (const CompareOp op : kOps) {
    for (const bool literal_rhs : {true, false}) {
      // price = 10 * id; the right operand is 95 or id * 11.
      auto pred = literal_rhs
                      ? Cmp(op, Col(1, Type::Double()), LitDouble(95.0))
                      : Cmp(op, Col(1, Type::Double()),
                            Mul(Col(0, Type::Int32()), LitDouble(11.0)));
      const auto reference = [&](const std::vector<uint32_t>& rows) {
        std::vector<uint32_t> kept;
        for (const uint32_t r : rows) {
          const double rhs = literal_rhs ? 95.0 : 11.0 * r;
          if (CompareValues(op, 10.0 * r, rhs)) kept.push_back(r);
        }
        return kept;
      };

      std::vector<uint32_t> all(block_.num_rows());
      for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
      EXPECT_EQ(pred->FilterAll(block_), reference(all))
          << "op=" << static_cast<int>(op) << " literal=" << literal_rhs;

      const std::vector<uint32_t> subset = {1, 3, 4, 9, 12, 17, 19};
      std::vector<uint32_t> filtered = subset;
      pred->Filter(block_, &filtered);
      EXPECT_EQ(filtered, reference(subset))
          << "op=" << static_cast<int>(op) << " literal=" << literal_rhs;
    }
  }
}

/// The sign of a - b for two values of one type, computed natively
/// (integers as int64, CHAR bytewise as unsigned bytes).
int OracleSign(const Type& type, const TypedValue& a, const TypedValue& b) {
  if (type.id() == TypeId::kChar) {
    std::vector<std::byte> pa(type.width());
    std::vector<std::byte> pb(type.width());
    a.CopyTo(type, pa.data());
    b.CopyTo(type, pb.data());
    const int c = std::memcmp(pa.data(), pb.data(), type.width());
    return (c > 0) - (c < 0);
  }
  if (type.id() == TypeId::kDouble) {
    return (a.AsDouble() > b.AsDouble()) - (a.AsDouble() < b.AsDouble());
  }
  return (a.ToInt64() > b.ToInt64()) - (a.ToInt64() < b.ToInt64());
}

/// Values of `type` that stress the compare kernels: extremes, negatives,
/// INT64 neighbours that doubles cannot tell apart (2^53 and 2^53 + 1),
/// and CHAR values that differ in any byte, high bytes included.
std::vector<TypedValue> OracleValues(const Type& type) {
  std::vector<TypedValue> out;
  switch (type.id()) {
    case TypeId::kInt32:
      for (const int32_t v : {INT32_MIN, -70000, -1, 0, 1, 5, 70000,
                              INT32_MAX}) {
        out.push_back(TypedValue::Int32(v));
      }
      break;
    case TypeId::kDate:
      for (const int32_t v : {-3000, -1, 0, 9000, 9001, 12000}) {
        out.push_back(TypedValue::Date(v));
      }
      break;
    case TypeId::kInt64: {
      const int64_t p53 = int64_t{1} << 53;
      for (const int64_t v : {INT64_MIN, -(p53 + 1), -p53, int64_t{-1},
                              int64_t{0}, int64_t{7}, p53, p53 + 1,
                              p53 + 2, INT64_MAX}) {
        out.push_back(TypedValue::Int64(v));
      }
      break;
    }
    case TypeId::kDouble:
      for (const double v :
           {-1e300, -2.5, -0.0, 0.0, 0.25, 2.5, 9007199254740992.0, 1e300}) {
        out.push_back(TypedValue::Double(v));
      }
      break;
    case TypeId::kChar: {
      const uint16_t w = type.width();
      const std::string bytes = "a zA\x7f\xc3\xff";
      for (size_t i = 0; i < 9; ++i) {
        std::string v(w, 'm');
        v[(i * 7) % w] = bytes[i % bytes.size()];
        v[w - 1 - (i % w)] = bytes[(i * 3) % bytes.size()];
        out.push_back(TypedValue::Char(v));
      }
      out.push_back(TypedValue::Char(std::string(w, 'm')));
      break;
    }
  }
  return out;
}

/// Row-by-row oracle for Comparison over every type and operator: a block
/// of (x, y) rows holding every pair of OracleValues, filtered by x op y,
/// x op literal and literal op x (the column, column-pair and generic
/// kernels), against the native compare of the two values.
TEST_P(ExprTest, CompareKernelsMatchRowByRowOracle) {
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  std::vector<Type> types = {Type::Int32(), Type::Int64(), Type::Date(),
                             Type::Double()};
  for (uint16_t w = 1; w <= 25; ++w) types.push_back(Type::Char(w));
  for (const Type& type : types) {
    const std::vector<TypedValue> values = OracleValues(type);
    const Schema schema({{"x", type}, {"y", type}});
    Block block(1, &schema, GetParam(), 64 * 1024);
    std::vector<std::byte> row(schema.row_width());
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t i = 0; i < values.size(); ++i) {
      for (size_t j = 0; j < values.size(); ++j) {
        values[i].CopyTo(type, row.data() + schema.offset(0));
        values[j].CopyTo(type, row.data() + schema.offset(1));
        ASSERT_TRUE(block.AppendRow(row.data()));
        pairs.emplace_back(i, j);
      }
    }
    for (const CompareOp op : kOps) {
      const std::string what = type.ToString() + " op " +
                               std::to_string(static_cast<int>(op));
      std::vector<uint32_t> expected;
      for (uint32_t r = 0; r < pairs.size(); ++r) {
        if (CompareValues(op, OracleSign(type, values[pairs[r].first],
                                         values[pairs[r].second]),
                          0)) {
          expected.push_back(r);
        }
      }
      EXPECT_EQ(Cmp(op, Col(0, type), Col(1, type))->FilterAll(block),
                expected)
          << what << " column vs column";
      for (const TypedValue& literal : values) {
        std::vector<uint32_t> lhs_column;
        std::vector<uint32_t> lhs_literal;
        for (uint32_t r = 0; r < pairs.size(); ++r) {
          const TypedValue& x = values[pairs[r].first];
          if (CompareValues(op, OracleSign(type, x, literal), 0)) {
            lhs_column.push_back(r);
          }
          if (CompareValues(op, OracleSign(type, literal, x), 0)) {
            lhs_literal.push_back(r);
          }
        }
        EXPECT_EQ(Cmp(op, Col(0, type), Lit(literal, type))->FilterAll(block),
                  lhs_column)
            << what << " column vs " << literal.ToString();
        EXPECT_EQ(Cmp(op, Lit(literal, type), Col(0, type))->FilterAll(block),
                  lhs_literal)
            << what << " " << literal.ToString() << " vs column";
      }
    }
  }
}

TEST_P(ExprTest, MixedIntegerWidthsCompareExactly) {
  // An INT32 column against INT64 literals outside the int32 range, and
  // against a DOUBLE literal between two integers.
  const Schema schema({{"x", Type::Int32()}});
  Block block(1, &schema, GetParam(), 4096);
  RowBuilder row(&schema);
  for (const int32_t v : {INT32_MIN, -1, 0, 2, 3, INT32_MAX}) {
    row.SetInt32(0, v);
    ASSERT_TRUE(block.AppendRow(row.data()));
  }
  EXPECT_EQ(Cmp(CompareOp::kLt, Col(0, Type::Int32()),
                LitInt64(int64_t{1} << 40))
                ->FilterAll(block),
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(Cmp(CompareOp::kGt, Col(0, Type::Int32()),
                LitInt64(-(int64_t{1} << 40)))
                ->FilterAll(block)
                .size(),
            6u);
  EXPECT_TRUE(Cmp(CompareOp::kEq, Col(0, Type::Int32()),
                  LitInt64(int64_t{1} << 32))
                  ->FilterAll(block)
                  .empty());
  EXPECT_EQ(Cmp(CompareOp::kLe, Col(0, Type::Int32()), LitDouble(2.5))
                ->FilterAll(block),
            (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST_P(ExprTest, ToStringRendersTree) {
  auto pred = Cmp(CompareOp::kGe, Col(1, Type::Double()), LitDouble(3.5));
  EXPECT_EQ(pred->ToString(), "($1 >= 3.5000)");
  auto like = std::make_unique<Like>(Col(3, Type::Char(8)), "a%b", false);
  EXPECT_EQ(like->ToString(), "$3 LIKE 'a%b'");
}

INSTANTIATE_TEST_SUITE_P(Layouts, ExprTest,
                         ::testing::Values(Layout::kRowStore,
                                           Layout::kColumnStore),
                         [](const auto& info) {
                           return info.param == Layout::kRowStore
                                      ? "RowStore"
                                      : "ColumnStore";
                         });

}  // namespace
}  // namespace uot

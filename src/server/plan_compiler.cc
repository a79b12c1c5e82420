#include "server/plan_compiler.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "expr/projection.h"
#include "operators/key_util.h"
#include "types/date.h"

namespace uot {
namespace server {
namespace {

/// A column resolved against the statement's tables: which side it lives
/// on (0 = FROM table, 1 = JOIN table) and its index there.
struct BoundColumn {
  int side = 0;
  int index = -1;
  Type type = Type::Int32();
};

class Resolver {
 public:
  Resolver(const std::string& left_name, const Schema* left,
           const std::string& right_name, const Schema* right)
      : left_name_(left_name),
        left_(left),
        right_name_(right_name),
        right_(right) {}

  Status Resolve(const std::string& name, BoundColumn* out) const {
    std::string qualifier, column = name;
    const size_t dot = name.find('.');
    if (dot != std::string::npos) {
      qualifier = name.substr(0, dot);
      column = name.substr(dot + 1);
    }
    if (qualifier.empty() || qualifier == left_name_) {
      const int idx = left_->ColumnIndex(column);
      if (idx >= 0) {
        *out = {0, idx, left_->column(idx).type};
        return Status::OK();
      }
      if (!qualifier.empty()) {
        return Status::NotFound("no column '" + column + "' in table '" +
                                qualifier + "'");
      }
    }
    if (right_ != nullptr && (qualifier.empty() || qualifier == right_name_)) {
      const int idx = right_->ColumnIndex(column);
      if (idx >= 0) {
        *out = {1, idx, right_->column(idx).type};
        return Status::OK();
      }
    }
    return Status::NotFound("unknown column '" + name + "'");
  }

 private:
  const std::string& left_name_;
  const Schema* left_;
  const std::string& right_name_;
  const Schema* right_;
};

Status BindValue(const SqlValue& value, const std::vector<SqlValue>& params,
                 const Type& type, TypedValue* out) {
  const SqlValue* v = &value;
  if (v->kind == SqlValue::Kind::kParam) {
    if (v->param_index < 0 ||
        v->param_index >= static_cast<int>(params.size())) {
      return Status::InvalidArgument(
          "missing value for parameter " + std::to_string(v->param_index + 1));
    }
    v = &params[static_cast<size_t>(v->param_index)];
    if (v->kind == SqlValue::Kind::kParam) {
      return Status::InvalidArgument("parameter bound to another '?'");
    }
  }
  switch (type.id()) {
    case TypeId::kInt32:
      if (v->kind != SqlValue::Kind::kInt) {
        return Status::InvalidArgument("expected an integer literal");
      }
      *out = TypedValue::Int32(static_cast<int32_t>(v->int_value));
      return Status::OK();
    case TypeId::kInt64:
      if (v->kind != SqlValue::Kind::kInt) {
        return Status::InvalidArgument("expected an integer literal");
      }
      *out = TypedValue::Int64(v->int_value);
      return Status::OK();
    case TypeId::kDouble:
      if (v->kind == SqlValue::Kind::kDouble) {
        *out = TypedValue::Double(v->double_value);
      } else if (v->kind == SqlValue::Kind::kInt) {
        *out = TypedValue::Double(static_cast<double>(v->int_value));
      } else {
        return Status::InvalidArgument("expected a numeric literal");
      }
      return Status::OK();
    case TypeId::kDate: {
      if (v->kind == SqlValue::Kind::kInt) {
        // Raw day count — the representation profiles/tools emit.
        *out = TypedValue::Date(static_cast<int32_t>(v->int_value));
        return Status::OK();
      }
      if (v->kind != SqlValue::Kind::kString) {
        return Status::InvalidArgument("expected a 'YYYY-MM-DD' date");
      }
      int y = 0, m = 0, d = 0;
      if (std::sscanf(v->string_value.c_str(), "%d-%d-%d", &y, &m, &d) != 3 ||
          m < 1 || m > 12 || d < 1 || d > 31) {
        return Status::InvalidArgument("bad date literal '" + v->string_value +
                                       "'");
      }
      *out = TypedValue::Date(MakeDate(y, m, d));
      return Status::OK();
    }
    case TypeId::kChar:
      if (v->kind != SqlValue::Kind::kString) {
        return Status::InvalidArgument("expected a string literal");
      }
      if (v->string_value.size() > type.width()) {
        return Status::InvalidArgument("string literal wider than CHAR(" +
                                       std::to_string(type.width()) + ")");
      }
      *out = TypedValue::Char(v->string_value);
      return Status::OK();
  }
  return Status::InvalidArgument("unsupported column type");
}

std::string AggName(const SqlSelectItem& item, size_t index) {
  std::string name = item.count_star ? "count_star" : item.column;
  const size_t dot = name.find('.');
  if (dot != std::string::npos) name = name.substr(dot + 1);
  return name + "_" + std::to_string(index);
}

/// Hash joins and grouping key on integers, dates and CHAR(<= 8) only.
Status CheckKeyable(const char* role, const std::string& name,
                    const BoundColumn& col) {
  if (IsKeyableType(col.type)) return Status::OK();
  return Status::InvalidArgument(
      std::string(role) + " '" + name + "' has type " + col.type.ToString() +
      "; keys must be integers, dates or CHAR of at most 8 bytes");
}

/// The family a key type compares within: integers (INT32 and INT64 join
/// each other), DATE, or CHAR. Keys of different families never match.
enum class KeyFamily { kInteger, kDate, kChar };

KeyFamily FamilyOf(const Type& type) {
  switch (type.id()) {
    case TypeId::kDate:
      return KeyFamily::kDate;
    case TypeId::kChar:
      return KeyFamily::kChar;
    default:
      return KeyFamily::kInteger;
  }
}

/// A statement's column references resolved against its tables and
/// type-checked, before any literal is bound.
struct BoundStatement {
  const Table* table[2] = {nullptr, nullptr};  // FROM, JOIN (null: none)
  std::vector<BoundColumn> where;               // one per WHERE conjunct
  BoundColumn key[2];                           // join keys, FROM first
  std::vector<BoundColumn> group_by;
  std::vector<BoundColumn> items;               // index -1 for COUNT(*)
  bool aggregated = false;
  /// Per join side, the base columns used above the join (group keys,
  /// aggregate arguments, bare items) in first-use order: all the join
  /// carries. COUNT(*) alone carries the build key, so that no
  /// intermediate is zero bytes wide.
  std::vector<int> carried[2];

  /// A join side's scan output: the key, then the carried columns.
  std::vector<int> ScanColumns(int side) const {
    std::vector<int> cols = {key[side].index};
    for (int c : carried[side]) {
      if (c != key[side].index) cols.push_back(c);
    }
    return cols;
  }

  /// Where `col` lands in the probe output: the probe side's carried
  /// columns, then the build payload's.
  int JoinOutputIndex(const BoundColumn& col) const {
    const std::vector<int>& side = carried[col.side];
    const int pos = static_cast<int>(
        std::find(side.begin(), side.end(), col.index) - side.begin());
    return col.side == 0 ? pos : static_cast<int>(carried[0].size()) + pos;
  }
};

Status Bind(const Catalog& catalog, const SelectStatement& stmt,
            BoundStatement* out) {
  out->table[0] = catalog.Find(stmt.table);
  if (out->table[0] == nullptr) {
    return Status::NotFound("unknown table '" + stmt.table + "'");
  }
  if (stmt.has_join) {
    out->table[1] = catalog.Find(stmt.join.table);
    if (out->table[1] == nullptr) {
      return Status::NotFound("unknown table '" + stmt.join.table + "'");
    }
  }
  Resolver resolver(stmt.table, &out->table[0]->schema(), stmt.join.table,
                    stmt.has_join ? &out->table[1]->schema() : nullptr);

  for (const SqlCondition& cond : stmt.where) {
    BoundColumn col;
    UOT_RETURN_IF_ERROR(resolver.Resolve(cond.column, &col));
    out->where.push_back(col);
  }
  if (stmt.has_join) {
    // Join keys: accept the ON columns in either order.
    const std::string* names[2] = {&stmt.join.left_column,
                                   &stmt.join.right_column};
    for (int k = 0; k < 2; ++k) {
      UOT_RETURN_IF_ERROR(resolver.Resolve(*names[k], &out->key[k]));
      UOT_RETURN_IF_ERROR(CheckKeyable("join key", *names[k], out->key[k]));
    }
    if (out->key[0].side == out->key[1].side) {
      return Status::InvalidArgument(
          "join condition must compare the two tables");
    }
    if (FamilyOf(out->key[0].type) != FamilyOf(out->key[1].type)) {
      return Status::InvalidArgument(
          "join keys '" + *names[0] + "' (" + out->key[0].type.ToString() +
          ") and '" + *names[1] + "' (" + out->key[1].type.ToString() +
          ") are not comparable; keys join integers with integers, dates "
          "with dates and CHAR with CHAR");
    }
    if (out->key[0].side == 1) std::swap(out->key[0], out->key[1]);
  }

  if (stmt.group_by.size() > 3) {
    return Status::InvalidArgument("GROUP BY takes at most 3 columns");
  }
  for (const std::string& name : stmt.group_by) {
    BoundColumn col;
    UOT_RETURN_IF_ERROR(resolver.Resolve(name, &col));
    UOT_RETURN_IF_ERROR(CheckKeyable("GROUP BY column", name, col));
    out->group_by.push_back(col);
  }
  for (const SqlSelectItem& item : stmt.items) {
    out->aggregated = out->aggregated || item.is_aggregate;
    BoundColumn col;
    if (!item.count_star) {
      UOT_RETURN_IF_ERROR(resolver.Resolve(item.column, &col));
      if (item.is_aggregate && item.fn != AggFn::kCount &&
          !col.type.IsNumeric()) {
        return Status::InvalidArgument(
            "aggregate argument '" + item.column + "' has type " +
            col.type.ToString() + "; SUM, AVG, MIN and MAX need a number");
      }
    }
    out->items.push_back(col);
  }
  out->aggregated = out->aggregated || !stmt.group_by.empty();

  if (stmt.has_join) {
    const auto carry = [out](const BoundColumn& col) {
      std::vector<int>& side = out->carried[col.side];
      if (std::find(side.begin(), side.end(), col.index) == side.end()) {
        side.push_back(col.index);
      }
    };
    for (const BoundColumn& col : out->group_by) carry(col);
    for (const BoundColumn& col : out->items) {
      if (col.index >= 0) carry(col);
    }
    if (out->carried[0].empty() && out->carried[1].empty()) carry(out->key[1]);
  }
  return Status::OK();
}

/// True when `cols` is 0, 1, ..., `width` - 1: the stage producing them
/// already emits the select list, with no reordering projection.
bool IsNativeOrder(const std::vector<int>& cols, size_t width) {
  if (cols.size() != width) return false;
  for (size_t j = 0; j < cols.size(); ++j) {
    if (cols[j] != static_cast<int>(j)) return false;
  }
  return true;
}

}  // namespace

Status PlanCompiler::Compile(const SelectStatement& stmt,
                             const std::vector<SqlValue>& params,
                             int radix_bits,
                             std::unique_ptr<QueryPlan>* out) const {
  BoundStatement bound;
  UOT_RETURN_IF_ERROR(Bind(*catalog_, stmt, &bound));
  const Table* const left = bound.table[0];

  // Split WHERE conjuncts by the scan they push down to.
  std::vector<std::unique_ptr<Predicate>> preds[2];
  for (size_t i = 0; i < stmt.where.size(); ++i) {
    const BoundColumn& col = bound.where[i];
    TypedValue value;
    UOT_RETURN_IF_ERROR(
        BindValue(stmt.where[i].value, params, col.type, &value));
    preds[col.side].push_back(Cmp(stmt.where[i].op, Col(col.index, col.type),
                                  Lit(value, col.type)));
  }
  // The conjunction of a side's WHERE conjuncts; null when it has none.
  auto side_pred = [&preds](int side) -> std::unique_ptr<Predicate> {
    if (preds[side].empty()) return nullptr;
    if (preds[side].size() == 1) return std::move(preds[side][0]);
    return And(std::move(preds[side]));
  };
  auto or_true = [](std::unique_ptr<Predicate> pred) {
    return pred != nullptr ? std::move(pred)
                           : std::make_unique<TruePredicate>();
  };

  PlanBuilder pb(catalog_->storage(), config_);
  PlanBuilder::Src current;
  std::unique_ptr<Predicate> agg_pred;

  if (!stmt.has_join) {
    if (!bound.aggregated) {
      // One scan filters and projects the select list.
      std::vector<int> cols;
      for (const BoundColumn& col : bound.items) cols.push_back(col.index);
      current = pb.Select("scan_" + stmt.table, PlanBuilder::Base(*left),
                          or_true(side_pred(0)),
                          Projection::Identity(left->schema(), cols));
      *out = pb.Finish(current);
      return Status::OK();
    }
    // The aggregate reads the base table and evaluates WHERE itself.
    current = PlanBuilder::Base(*left);
    agg_pred = side_pred(0);
  } else {
    // A side reads its base table directly when nothing filters it and no
    // exchange would copy its whole rows; otherwise a scan filters it and
    // projects the key and the carried columns. `scan_cols[s]` lists the
    // base column at each position of side s's scan (empty: no scan).
    const std::string names[2] = {stmt.table, stmt.join.table};
    PlanBuilder::Src in[2];
    std::vector<int> scan_cols[2];
    for (int s = 0; s < 2; ++s) {
      std::unique_ptr<Predicate> pred = side_pred(s);
      in[s] = PlanBuilder::Base(*bound.table[s]);
      if (pred == nullptr && radix_bits == 0) continue;
      scan_cols[s] = bound.ScanColumns(s);
      in[s] = pb.Select("scan_" + names[s], in[s], or_true(std::move(pred)),
                        Projection::Identity(bound.table[s]->schema(),
                                             scan_cols[s]));
    }
    auto input_cols = [&scan_cols](int s, const std::vector<int>& base) {
      if (scan_cols[s].empty()) return base;
      std::vector<int> cols;
      for (int c : base) {
        cols.push_back(static_cast<int>(
            std::find(scan_cols[s].begin(), scan_cols[s].end(), c) -
            scan_cols[s].begin()));
      }
      return cols;
    };
    BuildHashOperator* build =
        pb.Build("build_" + stmt.join.table, in[1],
                 input_cols(1, {bound.key[1].index}),
                 input_cols(1, bound.carried[1]), radix_bits);
    current = pb.Probe("probe_" + stmt.table, in[0], build,
                       input_cols(0, {bound.key[0].index}),
                       input_cols(0, bound.carried[0]));
    if (!bound.aggregated) {
      // The probe emits the carried columns; reorder only when the select
      // list interleaves the two sides or repeats a column.
      std::vector<int> cols;
      for (const BoundColumn& col : bound.items) {
        cols.push_back(bound.JoinOutputIndex(col));
      }
      if (!IsNativeOrder(cols, current.table->schema().num_columns())) {
        current = pb.Select("project", current,
                            std::make_unique<TruePredicate>(),
                            Projection::Identity(current.table->schema(),
                                                 cols));
      }
      *out = pb.Finish(current);
      return Status::OK();
    }
  }
  // Aggregate input columns: base-table indexes without a join, probe
  // output positions with one.
  auto input_index = [&stmt, &bound](const BoundColumn& col) {
    return stmt.has_join ? bound.JoinOutputIndex(col) : col.index;
  };

  std::vector<int> group_cols;
  for (const BoundColumn& col : bound.group_by) {
    group_cols.push_back(input_index(col));
  }
  // The aggregate's output is [group keys..., aggregates...]; out_cols
  // maps each select item to its position there so the result matches
  // the select list, not the operator's native order.
  std::vector<AggSpec> aggs;
  std::vector<int> out_cols;
  const int num_keys = static_cast<int>(group_cols.size());
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SqlSelectItem& item = stmt.items[i];
    const BoundColumn& col = bound.items[i];
    if (!item.is_aggregate) {
      const auto key = std::find(group_cols.begin(), group_cols.end(),
                                 input_index(col));
      if (key == group_cols.end()) {
        return Status::InvalidArgument(
            "column '" + item.column +
            "' must appear in GROUP BY or inside an aggregate");
      }
      out_cols.push_back(
          static_cast<int>(std::distance(group_cols.begin(), key)));
      continue;
    }
    AggSpec spec;
    spec.fn = item.fn;
    spec.name = AggName(item, i);
    if (!item.count_star) spec.expr = Col(input_index(col), col.type);
    out_cols.push_back(num_keys + static_cast<int>(aggs.size()));
    aggs.push_back(std::move(spec));
  }
  if (aggs.empty()) {
    return Status::InvalidArgument(
        "GROUP BY without an aggregate in the select list");
  }
  const size_t width = group_cols.size() + aggs.size();
  current = pb.Aggregate("agg", current, std::move(group_cols),
                         std::move(aggs), std::move(agg_pred));
  if (!IsNativeOrder(out_cols, width)) {
    current = pb.Select("project_agg", current,
                        std::make_unique<TruePredicate>(),
                        Projection::Identity(current.table->schema(),
                                             out_cols));
  }
  *out = pb.Finish(current);
  return Status::OK();
}

Status PlanCompiler::JoinEstimates(const SelectStatement& stmt,
                                   EdgeEstimate* build,
                                   EdgeEstimate* probe) const {
  if (!stmt.has_join) {
    return Status::InvalidArgument("statement has no join");
  }
  BoundStatement bound;
  UOT_RETURN_IF_ERROR(Bind(*catalog_, stmt, &bound));
  // The widths the compiled plan carries: the build payload, and the
  // probe side's key plus carried columns.
  build->rows = bound.table[1]->NumRows();
  build->row_bytes =
      SubSchema(bound.table[1]->schema(), bound.carried[1]).row_width();
  probe->rows = bound.table[0]->NumRows();
  probe->row_bytes =
      SubSchema(bound.table[0]->schema(), bound.ScanColumns(0)).row_width();
  return Status::OK();
}

}  // namespace server
}  // namespace uot

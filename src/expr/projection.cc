#include "expr/projection.h"

#include <algorithm>

#include "operators/key_util.h"
#include "util/scratch_arena.h"

namespace uot {

Projection::Projection(std::vector<std::unique_ptr<Scalar>> exprs,
                       std::vector<std::string> names)
    : exprs_(std::move(exprs)) {
  UOT_CHECK(exprs_.size() == names.size());
  std::vector<Column> columns;
  columns.reserve(exprs_.size());
  for (size_t i = 0; i < exprs_.size(); ++i) {
    columns.push_back(Column{std::move(names[i]), exprs_[i]->result_type()});
  }
  schema_ = Schema(std::move(columns));
}

void Projection::AppendRows(const Block& block, const uint32_t* rows,
                            uint32_t n, Block* out) const {
  UOT_DCHECK(out->free_rows() >= n);
  ScratchArena& arena = ScratchArena::ForThread();
  for (size_t e = 0; e < exprs_.size(); ++e) {
    const Scalar& expr = *exprs_[e];
    const uint16_t w = expr.result_type().width();
    uint32_t stride = 0;
    std::byte* dst = out->AppendCursor(static_cast<int>(e), &stride);
    if (const ColumnRef* ref = expr.as_column_ref()) {
      const ColumnAccess access = block.Column(ref->col());
      GatherValues(w, access.base, access.stride, rows, n, dst, stride);
      continue;
    }
    ScratchArena::Scope scope(&arena);
    std::byte* values = arena.Alloc(static_cast<size_t>(n) * w);
    expr.Eval(block, rows, n, values);
    GatherValues(w, values, w, nullptr, n, dst, stride);
  }
  out->CommitRows(n);
}

void Projection::MaterializeInto(const Block& block,
                                 const std::vector<uint32_t>& rows,
                                 RowSink* sink) const {
  const uint32_t n = static_cast<uint32_t>(rows.size());
  for (uint32_t done = 0; done < n;) {
    Block* out = sink->BlockWithRoom();
    const uint32_t k = std::min(out->free_rows(), n - done);
    AppendRows(block, rows.data() + done, k, out);
    done += k;
  }
}

std::unique_ptr<Projection> Projection::Identity(
    const Schema& input, const std::vector<int>& cols) {
  std::vector<std::unique_ptr<Scalar>> exprs;
  std::vector<std::string> names;
  exprs.reserve(cols.size());
  names.reserve(cols.size());
  for (int c : cols) {
    exprs.push_back(Col(c, input.column(c).type));
    names.push_back(input.column(c).name);
  }
  return std::make_unique<Projection>(std::move(exprs), std::move(names));
}

}  // namespace uot

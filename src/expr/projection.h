#ifndef UOT_EXPR_PROJECTION_H_
#define UOT_EXPR_PROJECTION_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expression.h"
#include "storage/insert_destination.h"

namespace uot {

/// A list of output expressions with names: the projection applied by a
/// producer operator before materializing its output block (the
/// "projectivity" knob of paper Section VI-A).
class Projection {
 public:
  Projection(std::vector<std::unique_ptr<Scalar>> exprs,
             std::vector<std::string> names);
  UOT_DISALLOW_COPY_AND_ASSIGN(Projection);

  const Schema& output_schema() const { return schema_; }
  int num_exprs() const { return static_cast<int>(exprs_.size()); }
  const Scalar& expr(int i) const { return *exprs_[static_cast<size_t>(i)]; }

  /// Writes the projection of rows `rows[0..n)` of `block` as `n` new rows
  /// of `out` and commits them. `out` must have output_schema() and at
  /// least `n` free rows. Bare column references gather straight into
  /// their output columns; computed expressions are evaluated into thread
  /// scratch and then copied in.
  void AppendRows(const Block& block, const uint32_t* rows, uint32_t n,
                  Block* out) const;

  /// Materializes the selected rows of `block` into `sink`, one
  /// AppendRows per output block.
  void MaterializeInto(const Block& block, const std::vector<uint32_t>& rows,
                       RowSink* sink) const;

  /// Convenience: a projection that passes through columns
  /// `cols` of `input` unchanged (names preserved).
  static std::unique_ptr<Projection> Identity(const Schema& input,
                                              const std::vector<int>& cols);

 private:
  std::vector<std::unique_ptr<Scalar>> exprs_;
  Schema schema_;
};

}  // namespace uot

#endif  // UOT_EXPR_PROJECTION_H_

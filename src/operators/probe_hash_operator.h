#ifndef UOT_OPERATORS_PROBE_HASH_OPERATOR_H_
#define UOT_OPERATORS_PROBE_HASH_OPERATOR_H_

#include <memory>
#include <vector>

#include "expr/predicate.h"
#include "join/hash_table.h"
#include "operators/build_hash_operator.h"
#include "operators/operator.h"
#include "storage/insert_destination.h"

namespace uot {

enum class JoinKind : uint8_t {
  kInner = 0,
  kLeftSemi = 1,  // emit probe row iff a match exists (EXISTS subqueries)
  kLeftAnti = 2,  // emit probe row iff no match exists (NOT EXISTS)
};

/// An extra non-equijoin condition checked per candidate match:
///   probe_value  op  scale * payload_value
/// Both sides are widened to double when either column is a DOUBLE (or
/// `scale != 1`), otherwise compared as int64. This covers the TPC-H
/// residuals: Q21's `l2.l_suppkey <> l1.l_suppkey` (integral), Q17's
/// `l_quantity < 0.2 * avg(l_quantity)` and Q20's
/// `ps_availqty > 0.5 * sum(l_quantity)` (scaled doubles), and Q2's
/// `ps_supplycost = min(ps_supplycost)`.
struct ResidualCondition {
  int probe_col;
  int payload_col;
  CompareOp op;
  double scale = 1.0;
};

/// Probes the join hash table with each input block: the consumer operator
/// of the paper's select -> probe pipeline (paper Sections III/V). One work
/// order per probe input block; work orders only become eligible after the
/// build operator finished (a blocking DAG dependency). A fused pipeline
/// runs the same kernel (ProbeRows) over its row groups.
class ProbeHashOperator final : public Operator {
 public:
  /// Caller-owned scratch of ProbeRows, sized on first use and reused by
  /// every later call, so the steady-state loop performs no heap
  /// allocation. One set per caller: a work order, or one fused stage.
  struct ProbeScratch {
    std::vector<uint64_t> keys;
    std::vector<uint64_t> hashes;
    std::vector<JoinMatch> matches;
    std::vector<double> residual_vals;  // [residual * batch + row]
    std::vector<uint8_t> row_has_match;
    std::vector<uint32_t> out_rows;  // block rows of the batch's output
  };

  /// `build` owns the hash table this operator probes; the plan must add a
  /// blocking edge build -> this.
  ProbeHashOperator(std::string name, const BuildHashOperator* build,
                    std::vector<int> probe_key_cols,
                    std::vector<int> probe_output_cols, JoinKind kind,
                    std::vector<ResidualCondition> residuals,
                    InsertDestination* destination);

  /// Probe input is a materialized table rather than a stream.
  void AttachBaseTable(const Table* table) { input_.AttachTable(table); }

  void BindExecContext(const OperatorExecContext& ctx) override {
    exec_ctx_ = ctx;
  }

  void ReceiveInputBlocks(int input_index,
                          const std::vector<Block*>& blocks) override;
  void InputDone(int input_index) override;
  bool GenerateWorkOrders(
      std::vector<std::unique_ptr<WorkOrder>>* out) override;
  void Finish() override;

  /// The probe kernel: probes rows [row_begin, row_begin + n) of `block`
  /// against `table` batch by batch (columnar extract -> hash + prefetch +
  /// match -> residual filter -> emit) under the bound context's batch
  /// size and prefetch distance, appending output rows to `sink` in probe
  /// row order. Join-stage trace spans are attributed to operator
  /// `op_index` on worker `worker_id`'s track. Returns the rows emitted.
  uint64_t ProbeRows(const Block& block, uint32_t row_begin, uint32_t n,
                     const JoinHashTable& table, ProbeScratch* scratch,
                     RowSink* sink, int op_index, int worker_id) const;

  /// Output schema: probe output columns, then (for inner joins) the build
  /// payload columns.
  static Schema OutputSchema(const Schema& probe_schema,
                             const std::vector<int>& probe_output_cols,
                             const Schema& build_schema,
                             const std::vector<int>& payload_cols,
                             JoinKind kind);

  const BuildHashOperator* build() const { return build_; }
  InsertDestination* destination() const { return destination_; }
  /// The streaming/base input, exposed so a fused pipeline driver can pull
  /// this operator's pending blocks when it acts as a chain head.
  StreamingInput* streaming_input() { return &input_; }

 private:
  const BuildHashOperator* const build_;
  const std::vector<int> probe_key_cols_;
  const std::vector<int> probe_output_cols_;
  const JoinKind kind_;
  const std::vector<ResidualCondition> residuals_;
  InsertDestination* const destination_;
  OperatorExecContext exec_ctx_;  // defaults until the scheduler binds one

  StreamingInput input_;
};

/// Probes one block against its hash (sub-)table into the operator's
/// destination.
class ProbeHashWorkOrder final : public WorkOrder {
 public:
  ProbeHashWorkOrder(const Block* block, const JoinHashTable* hash_table,
                     const ProbeHashOperator* op)
      : block_(block), hash_table_(hash_table), op_(op) {}

  void Execute() override;

 private:
  const Block* const block_;
  const JoinHashTable* const hash_table_;
  const ProbeHashOperator* const op_;
};

}  // namespace uot

#endif  // UOT_OPERATORS_PROBE_HASH_OPERATOR_H_

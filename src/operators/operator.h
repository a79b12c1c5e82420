#ifndef UOT_OPERATORS_OPERATOR_H_
#define UOT_OPERATORS_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "operators/exec_context.h"
#include "storage/block.h"
#include "storage/table.h"

namespace uot {

/// One independently executable unit of an operator's work (paper
/// Section III): the operator's logic bound to one input granule. Work
/// orders of one operator may execute concurrently on different workers.
class WorkOrder {
 public:
  virtual ~WorkOrder() = default;

  virtual void Execute() = 0;

  /// Set by the scheduler at dispatch time.
  int operator_index = -1;

  /// When the scheduler handed this order to the worker pool (NowNanos()).
  int64_t dispatch_ns = 0;

  /// Worker executing this order, set just before Execute(); 0 for
  /// standalone drivers. Used as the trace track (tid = 1 + worker_id).
  int worker_id = 0;

  /// The transient intermediate blocks this work order consumes, if any.
  /// The scheduler may drop them once the work order completes (temporary
  /// blocks are transient under small UoT values — paper Table II's
  /// zero intermediate-table footprint for the low-UoT strategy). Never
  /// populated with base-table input blocks. Operators with several
  /// streaming inputs (sort-merge join) list blocks from every input; the
  /// scheduler resolves each block to its producer table.
  std::vector<Block*> consumed_blocks;
};

/// A physical relational operator.
///
/// The scheduler drives operators through a small lifecycle, always from the
/// scheduler thread (implementations need no internal locking for these
/// calls):
///   1. ReceiveInputBlocks / InputDone as the UoT policy releases producer
///      output to this operator;
///   2. GenerateWorkOrders whenever new input or dependency completion makes
///      progress possible — the operator emits ready work orders and reports
///      whether it will ever emit more;
///   3. Finish once all emitted work orders have executed and generation is
///      done — the operator flushes partially filled output blocks.
class Operator {
 public:
  explicit Operator(std::string name) : name_(std::move(name)) {}
  virtual ~Operator() = default;
  UOT_DISALLOW_COPY_AND_ASSIGN(Operator);

  const std::string& name() const { return name_; }

  /// Installs the execution context (kernel knobs + observability handles)
  /// before work-order generation starts. Operators that never get bound
  /// run with the default-constructed context. Called from the scheduler
  /// thread (or a standalone driver); the referenced sinks must outlive
  /// every work order of this operator.
  virtual void BindExecContext(const OperatorExecContext& ctx) { (void)ctx; }

  /// Streaming input delivery. `input_index` identifies the edge for
  /// operators with several streaming inputs.
  virtual void ReceiveInputBlocks(int input_index,
                                  const std::vector<Block*>& blocks) {
    (void)input_index;
    (void)blocks;
  }

  /// The streaming producer feeding `input_index` has completed.
  virtual void InputDone(int input_index) { (void)input_index; }

  /// Emits work orders that are ready to execute. Returns true when the
  /// operator is certain it will generate no further work orders.
  virtual bool GenerateWorkOrders(
      std::vector<std::unique_ptr<WorkOrder>>* out) = 0;

  /// All work orders completed; flush outputs (partially filled blocks are
  /// transferred at the end of the operator's execution — paper §III-B).
  virtual void Finish() {}

 private:
  const std::string name_;
};

/// Helper for operators with one streaming (or base-table) input: tracks
/// delivered-but-unprocessed blocks and end-of-input.
class StreamingInput {
 public:
  StreamingInput() = default;

  /// Binds the input to a fully materialized table instead of a stream.
  void AttachTable(const Table* table) {
    for (Block* b : table->blocks()) pending_.push_back(b);
    done_ = true;
    from_base_table_ = true;
    total_rows_ += table->NumRows();
  }

  /// True if the input is a base table (whose blocks must never be
  /// treated as transient intermediates).
  bool from_base_table() const { return from_base_table_; }

  void Deliver(const std::vector<Block*>& blocks) {
    for (Block* b : blocks) {
      pending_.push_back(b);
      total_rows_ += b->num_rows();
    }
  }

  void MarkDone() { done_ = true; }
  bool done() const { return done_; }
  uint64_t total_rows() const { return total_rows_; }

  /// Blocks delivered since the last call (consumed by the operator).
  std::vector<Block*> TakePending() {
    std::vector<Block*> taken;
    taken.swap(pending_);
    return taken;
  }

  bool HasPending() const { return !pending_.empty(); }

 private:
  std::vector<Block*> pending_;
  bool done_ = false;
  bool from_base_table_ = false;
  uint64_t total_rows_ = 0;
};

}  // namespace uot

#endif  // UOT_OPERATORS_OPERATOR_H_

#ifndef UOT_OPERATORS_EXCHANGE_OPERATOR_H_
#define UOT_OPERATORS_EXCHANGE_OPERATOR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "join/partition_kernel.h"
#include "operators/operator.h"
#include "storage/insert_destination.h"

namespace uot {

/// Hash-repartitions its input into `2^radix_bits` disjoint partitions —
/// the producer side of an exchange edge (QueryPlan::EdgeKind::kExchange).
///
/// Rows are routed by the TOP `radix_bits` bits of the mixed join-key hash
/// (join/partition_kernel.h), the same hash the build/probe kernels mix, so
/// equal keys on both sides of a join land in the same partition. Each
/// partition has its own InsertDestination; all destinations write one
/// output table, and every completed block carries its partition tag, so
/// the downstream partitioned build/probe routes whole blocks to the right
/// hash sub-table with the join kernels unchanged.
///
/// The operator streams: one work order per delivered input block, no
/// barrier — repartitioning of early blocks overlaps the upstream select
/// (what distinguishes an exchange edge from a materializing break).
class ExchangeOperator final : public Operator {
 public:
  /// `destinations` are the per-partition sinks, one per partition in
  /// partition order (the plan owns them; they must all write the same
  /// output table and have their partition ids set). `key_cols` index the
  /// input schema.
  ExchangeOperator(std::string name, std::vector<int> key_cols,
                   int radix_bits,
                   std::vector<InsertDestination*> destinations);

  /// Binds the input to a materialized base table (instead of a stream).
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

  int radix_bits() const { return radix_bits_; }
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(destinations_.size());
  }
  const std::vector<int>& key_cols() const { return key_cols_; }

  /// Rows routed to partition `p` so far (exact once the operator
  /// finished) — the skew signal behind the per-partition gauges.
  uint64_t partition_rows(uint32_t p) const {
    return partition_rows_[p].load(std::memory_order_relaxed);
  }
  /// Completed output blocks of partition `p` — 1:1 with the partition's
  /// downstream build/probe work orders.
  uint64_t partition_blocks(uint32_t p) const {
    return destinations_[p]->blocks_completed();
  }

 private:
  friend class ExchangeWorkOrder;

  const std::vector<int> key_cols_;
  const int radix_bits_;
  const std::vector<InsertDestination*> destinations_;

  StreamingInput input_;
  OperatorExecContext exec_ctx_;  // defaults until the scheduler binds one
  std::unique_ptr<std::atomic<uint64_t>[]> partition_rows_;
};

/// Routes one input block's rows to the per-partition destinations via the
/// batched extract -> hash/partition -> scatter pipeline, preserving input
/// row order within each partition.
class ExchangeWorkOrder final : public WorkOrder {
 public:
  ExchangeWorkOrder(const Block* block, ExchangeOperator* op)
      : block_(block), op_(op) {}

  void Execute() override;

 private:
  const Block* const block_;
  ExchangeOperator* const op_;
};

}  // namespace uot

#endif  // UOT_OPERATORS_EXCHANGE_OPERATOR_H_

#ifndef UOT_FUSED_FUSED_PIPELINE_H_
#define UOT_FUSED_FUSED_PIPELINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "operators/aggregate_operator.h"
#include "operators/operator.h"
#include "operators/probe_hash_operator.h"
#include "operators/select_operator.h"
#include "plan/query_plan.h"
#include "storage/block.h"
#include "storage/insert_destination.h"

namespace uot {
namespace fused {

/// A fused pipeline: a select→probe(×N)→aggregate/project chain executed
/// row group by row group — the third point on the UoT spectrum, beyond
/// block-at-a-time toward "as small as a single tuple".
///
/// Where the vectorized path materializes every interior operator's output
/// into blocks and transfers them under the UoT policy, a fused chain binds
/// all stages at construction time: each work order takes one head input
/// block and walks it in small row groups through the whole chain, carrying
/// only a selection vector plus (after a projection or join widens rows)
/// one cache-resident scratch granule per interior stage. Interior
/// streaming edges transfer zero blocks; pipeline breakers (hash-table
/// builds, exchanges, sorts) keep their vectorized edges.
///
/// Every stage calls its operator's own kernel — SelectOperator::FilterRows,
/// ProbeHashOperator::ProbeRows (batched and prefetched under the probe's
/// bound context), AggregateOperator::Accumulate — the same code the
/// vectorized work orders run, only over a row group into a granule instead
/// of a whole block into a block writer. Fused output is therefore
/// byte-identical to vectorized output per stage; only the granule
/// boundaries differ.
class FusedChain {
 public:
  /// Rows per head row group — and the row capacity of every interior
  /// scratch granule, so no stage ever sees a wider input than this. Small
  /// enough that a granule of typical intermediate width stays L1/L2
  /// resident while rows loop through the chain.
  static constexpr uint32_t kRowGroupRows = 1024;

  enum class StageKind : uint8_t { kSelect, kProbe, kAggregate };

  /// One bound stage. Exactly one operator pointer is non-null, per kind.
  struct Stage {
    StageKind kind;
    int op_index;
    SelectOperator* select = nullptr;
    ProbeHashOperator* probe = nullptr;
    AggregateOperator* agg = nullptr;
    /// Schema of this stage's output rows (the operator's destination
    /// schema); null for the aggregate tail, which emits no stream.
    const Schema* out_schema = nullptr;
    /// Rows entering / leaving the stage, summed over all work orders
    /// (relaxed: per-stage totals, no cross-stage ordering claimed).
    std::atomic<uint64_t> rows_in{0};
    std::atomic<uint64_t> rows_out{0};
  };

  /// Per-stage counter snapshot for profiles and EXPLAIN ANALYZE.
  struct StageStats {
    int op_index;
    std::string name;
    StageKind kind;
    uint64_t rows_in;
    uint64_t rows_out;
  };

  /// Binds the chain over `plan` operators `ops` (must satisfy
  /// PipelineFuser::IsFusableChain; CHECK-fails on a non-fusable shape).
  FusedChain(QueryPlan* plan, std::vector<int> ops);
  UOT_DISALLOW_COPY_AND_ASSIGN(FusedChain);

  /// Mirrors Operator::GenerateWorkOrders for the chain head: one fused
  /// work order per pending head input block; returns true when the head
  /// input is exhausted.
  bool GenerateWorkOrders(std::vector<std::unique_ptr<WorkOrder>>* out);

  const std::vector<int>& ops() const { return ops_; }
  int head_op() const { return ops_.front(); }
  int tail_op() const { return ops_.back(); }
  int num_stages() const { return static_cast<int>(stages_.size()); }
  const Stage& stage(int i) const { return *stages_[static_cast<size_t>(i)]; }

  std::vector<StageStats> Stats() const;
  uint64_t work_orders() const {
    return work_orders_.load(std::memory_order_relaxed);
  }

  static const char* StageKindName(StageKind kind);

 private:
  friend class FusedChainWorkOrder;

  const std::vector<int> ops_;
  std::vector<std::unique_ptr<Stage>> stages_;
  StreamingInput* head_input_;
  std::atomic<uint64_t> work_orders_{0};
};

/// Executes the whole fused chain over one head input block, row group by
/// row group. Scratch granules are work-order-local, so chain work orders
/// run concurrently like any other.
class FusedChainWorkOrder final : public WorkOrder {
 public:
  FusedChainWorkOrder(const Block* block, FusedChain* chain)
      : block_(block), chain_(chain) {}

  void Execute() override;

 private:
  class GranuleSink;

  /// Runs stage `s` over rows [row_begin, row_begin + n) of `block` — the
  /// head row group or a whole flushed granule, so always a contiguous
  /// range — recursing into downstream stages as output granules fill.
  void ExecStage(size_t s, const Block& block, uint32_t row_begin,
                 uint32_t n);

  /// Pushes the rows buffered in stage `s`'s scratch granule through the
  /// downstream stages, then clears the granule.
  void FlushScratch(size_t s);

  const Block* const block_;
  FusedChain* const chain_;

  // Execute-scoped state (the work order is single-use).
  std::vector<std::unique_ptr<Block>> scratch_;   // [stage], interior only
  std::vector<std::vector<uint32_t>> sels_;       // [stage]
  std::vector<ProbeHashOperator::ProbeScratch> probe_scratch_;  // [stage]
  std::unique_ptr<InsertDestination::Writer> writer_;  // non-aggregate tail
  GroupTable* partial_ = nullptr;  // aggregate tail: the thread's partial
};

}  // namespace fused
}  // namespace uot

#endif  // UOT_FUSED_FUSED_PIPELINE_H_

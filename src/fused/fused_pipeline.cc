#include "fused/fused_pipeline.h"

#include <algorithm>
#include <numeric>

namespace uot {
namespace fused {

FusedChain::FusedChain(QueryPlan* plan, std::vector<int> ops)
    : ops_(std::move(ops)) {
  UOT_CHECK(ops_.size() >= 2);
  stages_.reserve(ops_.size());
  for (size_t i = 0; i < ops_.size(); ++i) {
    Operator* op = plan->op(ops_[i]);
    auto stage = std::make_unique<Stage>();
    stage->op_index = ops_[i];
    if (auto* select = dynamic_cast<SelectOperator*>(op)) {
      stage->kind = StageKind::kSelect;
      stage->select = select;
      stage->out_schema = &select->destination()->schema();
    } else if (auto* probe = dynamic_cast<ProbeHashOperator*>(op)) {
      // Radix-partitioned probes are pipeline breakers; the fuser never
      // admits them.
      UOT_CHECK(probe->build()->radix_bits() == 0);
      stage->kind = StageKind::kProbe;
      stage->probe = probe;
      stage->out_schema = &probe->destination()->schema();
    } else if (auto* agg = dynamic_cast<AggregateOperator*>(op)) {
      UOT_CHECK(i + 1 == ops_.size());  // aggregates only terminate chains
      stage->kind = StageKind::kAggregate;
      stage->agg = agg;
    } else {
      UOT_CHECK(false);  // not a fusable operator
    }
    stages_.push_back(std::move(stage));
  }
  Stage& head = *stages_.front();
  head_input_ = head.kind == StageKind::kSelect
                    ? head.select->streaming_input()
                    : head.probe->streaming_input();
}

bool FusedChain::GenerateWorkOrders(
    std::vector<std::unique_ptr<WorkOrder>>* out) {
  for (Block* block : head_input_->TakePending()) {
    auto wo = std::make_unique<FusedChainWorkOrder>(block, this);
    if (!head_input_->from_base_table()) wo->consumed_blocks.push_back(block);
    out->push_back(std::move(wo));
    work_orders_.fetch_add(1, std::memory_order_relaxed);
  }
  return head_input_->done();
}

std::vector<FusedChain::StageStats> FusedChain::Stats() const {
  std::vector<StageStats> out;
  out.reserve(stages_.size());
  for (const std::unique_ptr<Stage>& st : stages_) {
    const Operator* op = st->select != nullptr
                             ? static_cast<const Operator*>(st->select)
                             : (st->probe != nullptr
                                    ? static_cast<const Operator*>(st->probe)
                                    : static_cast<const Operator*>(st->agg));
    out.push_back(StageStats{st->op_index, op->name(), st->kind,
                             st->rows_in.load(std::memory_order_relaxed),
                             st->rows_out.load(std::memory_order_relaxed)});
  }
  return out;
}

const char* FusedChain::StageKindName(StageKind kind) {
  switch (kind) {
    case StageKind::kSelect:
      return "select";
    case StageKind::kProbe:
      return "probe";
    case StageKind::kAggregate:
      return "aggregate";
  }
  return "?";
}

/// Collects stage `s`'s output rows in its scratch granule, pushing the
/// granule through the downstream stages whenever it fills.
class FusedChainWorkOrder::GranuleSink final : public RowSink {
 public:
  GranuleSink(FusedChainWorkOrder* wo, size_t s)
      : wo_(wo), s_(s), out_(wo->scratch_[s].get()) {}

  Block* BlockWithRoom() override {
    if (out_->Full()) wo_->FlushScratch(s_);
    return out_;
  }

 private:
  FusedChainWorkOrder* const wo_;
  const size_t s_;
  Block* const out_;
};

void FusedChainWorkOrder::Execute() {
  const size_t num_stages = chain_->stages_.size();
  sels_.resize(num_stages);
  probe_scratch_.resize(num_stages);
  scratch_.resize(num_stages);
  for (size_t s = 0; s + 1 < num_stages; ++s) {
    // Interior stages stream into a work-order-local granule sized to the
    // row-group bound, so downstream stages never see a wider input.
    const Schema* schema = chain_->stages_[s]->out_schema;
    scratch_[s] = std::make_unique<Block>(
        0, schema, Layout::kRowStore,
        static_cast<size_t>(FusedChain::kRowGroupRows) * schema->row_width());
  }
  const FusedChain::Stage& tail = *chain_->stages_.back();
  if (tail.kind == FusedChain::StageKind::kAggregate) {
    partial_ = tail.agg->ThreadPartial();
  } else {
    InsertDestination* dest = tail.kind == FusedChain::StageKind::kSelect
                                  ? tail.select->destination()
                                  : tail.probe->destination();
    writer_ = std::make_unique<InsertDestination::Writer>(dest);
  }

  const uint32_t num_rows = block_->num_rows();
  for (uint32_t base = 0; base < num_rows;
       base += FusedChain::kRowGroupRows) {
    ExecStage(0, *block_, base,
              std::min(FusedChain::kRowGroupRows, num_rows - base));
  }

  if (tail.kind == FusedChain::StageKind::kAggregate) {
    tail.agg->MergePartial(*partial_);
  }
  writer_.reset();  // flush the tail writer before the order completes
}

void FusedChainWorkOrder::ExecStage(size_t s, const Block& block,
                                    uint32_t row_begin, uint32_t n) {
  FusedChain::Stage& st = *chain_->stages_[s];
  st.rows_in.fetch_add(n, std::memory_order_relaxed);
  const bool tail = s + 1 == chain_->stages_.size();

  // Interior stages write into their granule, the tail into its writer.
  GranuleSink granule(this, s);
  RowSink* sink = tail ? static_cast<RowSink*>(writer_.get()) : &granule;
  if (st.kind == FusedChain::StageKind::kProbe) {
    const JoinHashTable* table = st.probe->build()->hash_table();
    UOT_CHECK(table != nullptr);  // blocking edge: build done
    const uint64_t emitted =
        st.probe->ProbeRows(block, row_begin, n, *table, &probe_scratch_[s],
                            sink, st.op_index, worker_id);
    st.rows_out.fetch_add(emitted, std::memory_order_relaxed);
    if (!tail) FlushScratch(s);
    return;
  }

  // Select and aggregate stages filter a selection vector over the range.
  std::vector<uint32_t>& sel = sels_[s];
  sel.resize(n);
  std::iota(sel.begin(), sel.end(), row_begin);
  if (st.kind == FusedChain::StageKind::kAggregate) {
    // One partial spans the whole fused work order (merged in Execute).
    st.agg->Accumulate(block, &sel, partial_);
    st.rows_out.fetch_add(sel.size(), std::memory_order_relaxed);
    return;
  }
  st.select->FilterRows(block, &sel);
  st.rows_out.fetch_add(sel.size(), std::memory_order_relaxed);
  if (sel.empty()) return;
  st.select->projection().MaterializeInto(block, sel, sink);
  if (!tail) FlushScratch(s);
}

void FusedChainWorkOrder::FlushScratch(size_t s) {
  Block* out = scratch_[s].get();
  if (out->Empty()) return;
  ExecStage(s + 1, *out, 0, out->num_rows());
  out->Clear();
}

}  // namespace fused
}  // namespace uot

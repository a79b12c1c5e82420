#include "operators/exchange_operator.h"

#include <algorithm>

#include "obs/trace_session.h"
#include "operators/key_util.h"
#include "util/scratch_arena.h"

namespace uot {

ExchangeOperator::ExchangeOperator(std::string name, std::vector<int> key_cols,
                                   int radix_bits,
                                   std::vector<InsertDestination*> destinations)
    : Operator(std::move(name)),
      key_cols_(std::move(key_cols)),
      radix_bits_(radix_bits),
      destinations_(std::move(destinations)) {
  UOT_CHECK(key_cols_.size() == 1 || key_cols_.size() == 2);
  UOT_CHECK(radix_bits_ >= 1 && radix_bits_ <= kMaxRadixBits);
  UOT_CHECK(destinations_.size() == NumPartitions(radix_bits_));
  for (size_t p = 0; p < destinations_.size(); ++p) {
    UOT_CHECK(destinations_[p]->partition() == static_cast<int32_t>(p));
    // One shared output table: block routing happens via the partition tag,
    // not via separate tables, so downstream edge/droppable bookkeeping
    // stays per-table.
    UOT_CHECK(destinations_[p]->output() == destinations_[0]->output());
  }
  partition_rows_ =
      std::make_unique<std::atomic<uint64_t>[]>(destinations_.size());
  for (size_t p = 0; p < destinations_.size(); ++p) {
    partition_rows_[p].store(0, std::memory_order_relaxed);
  }
}

void ExchangeOperator::ReceiveInputBlocks(int input_index,
                                          const std::vector<Block*>& blocks) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.Deliver(blocks);
}

void ExchangeOperator::InputDone(int input_index) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.MarkDone();
}

bool ExchangeOperator::GenerateWorkOrders(
    std::vector<std::unique_ptr<WorkOrder>>* out) {
  for (Block* block : input_.TakePending()) {
    for (int col : key_cols_) {
      UOT_CHECK(IsKeyableType(block->schema().column(col).type));
    }
    auto wo = std::make_unique<ExchangeWorkOrder>(block, this);
    if (!input_.from_base_table()) wo->consumed_blocks.push_back(block);
    out->push_back(std::move(wo));
  }
  return input_.done();
}

void ExchangeOperator::Finish() {
  for (InsertDestination* d : destinations_) d->Flush();
}

void ExchangeWorkOrder::Execute() {
  const uint32_t parts = op_->num_partitions();
  const int radix_bits = op_->radix_bits_;
  const int words = static_cast<int>(op_->key_cols_.size());
  const Schema& schema = block_->schema();
  const size_t row_width = schema.row_width();
  const OperatorExecContext& ctx = op_->exec_ctx_;
  const uint32_t batch = ctx.join.clamped_batch_size();

  // All columns, in order: the exchange forwards rows unchanged.
  std::vector<int> all_cols(static_cast<size_t>(schema.num_columns()));
  for (size_t c = 0; c < all_cols.size(); ++c) {
    all_cols[c] = static_cast<int>(c);
  }

  // Per-work-order scratch, sized once and reused by every batch.
  ScratchArena& arena = ScratchArena::ForThread();
  ScratchArena::Scope scope(&arena);
  uint64_t* keys =
      arena.AllocArray<uint64_t>(static_cast<size_t>(batch) * words);
  uint32_t* partitions = arena.AllocArray<uint32_t>(batch);
  std::byte* rows = arena.Alloc(static_cast<size_t>(batch) * row_width);
  uint64_t* counts = arena.AllocArray<uint64_t>(parts);
  std::fill(counts, counts + parts, uint64_t{0});

  std::vector<std::unique_ptr<InsertDestination::Writer>> writers(parts);
  const uint32_t num_rows = block_->num_rows();
  for (uint32_t base = 0; base < num_rows; base += batch) {
    const uint32_t m = std::min(batch, num_rows - base);

    // Stage: columnar key extraction + hash + radix partition ids.
    int64_t t0 = ctx.StageStart();
    ExtractKeys(*block_, op_->key_cols_, base, m, keys);
    PartitionBatch(keys, m, words, radix_bits, partitions);
    ctx.TraceStage(worker_id, operator_index, obs::JoinBatchStage::kPartition,
                   t0, m);

    // Stage: pack the batch's rows once, then scatter each to its
    // partition's writer.
    t0 = ctx.StageStart();
    ExtractRows(*block_, all_cols, schema, base, m, rows);
    for (uint32_t i = 0; i < m; ++i) {
      const uint32_t p = partitions[i];
      if (writers[p] == nullptr) {
        writers[p] =
            std::make_unique<InsertDestination::Writer>(op_->destinations_[p]);
      }
      writers[p]->AppendRow(rows + static_cast<size_t>(i) * row_width);
      ++counts[p];
    }
    ctx.TraceStage(worker_id, operator_index, obs::JoinBatchStage::kScatter,
                   t0, m);
  }

  for (uint32_t p = 0; p < parts; ++p) {
    if (counts[p] != 0) {
      op_->partition_rows_[p].fetch_add(counts[p], std::memory_order_relaxed);
    }
  }
}

}  // namespace uot

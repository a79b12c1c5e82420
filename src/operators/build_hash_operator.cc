#include "operators/build_hash_operator.h"

#include <algorithm>

#include "obs/trace_session.h"
#include "operators/key_util.h"
#include "storage/table.h"

namespace uot {

BuildHashOperator::BuildHashOperator(std::string name,
                                     std::vector<int> key_cols,
                                     std::vector<int> payload_cols,
                                     double load_factor,
                                     MemoryTracker* tracker, int radix_bits)
    : Operator(std::move(name)),
      key_cols_(std::move(key_cols)),
      payload_cols_(std::move(payload_cols)),
      load_factor_(load_factor),
      tracker_(tracker),
      radix_bits_(radix_bits) {
  UOT_CHECK(key_cols_.size() == 1 || key_cols_.size() == 2);
  UOT_CHECK(radix_bits_ >= 0 && radix_bits_ <= kMaxRadixBits);
}

void BuildHashOperator::InitHashTable(const Schema& input_schema) {
  if (tables_ != nullptr) return;
  Schema payload;
  if (input_schema.num_columns() > 0) {
    for (int c : key_cols_) {
      UOT_CHECK(IsKeyableType(input_schema.column(c).type));
    }
    payload = SubSchema(input_schema, payload_cols_);
  }  // else: empty input — probes will see an empty table
  tables_ = std::make_unique<PartitionedJoinHashTable>(
      std::move(payload), static_cast<int>(key_cols_.size()), load_factor_,
      radix_bits_, tracker_);
}

const JoinHashTable* BuildHashOperator::table_for_block(
    const Block* block) const {
  if (tables_ == nullptr) return nullptr;
  if (radix_bits_ == 0) return tables_->sub_table(0);
  const int32_t p = block->partition();
  UOT_CHECK(p >= 0 &&
            static_cast<uint32_t>(p) < tables_->num_partitions());
  return tables_->sub_table(static_cast<uint32_t>(p));
}

void BuildHashOperator::ReceiveInputBlocks(int input_index,
                                           const std::vector<Block*>& blocks) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  if (!blocks.empty()) InitHashTable(blocks.front()->schema());
  input_.Deliver(blocks);
}

void BuildHashOperator::InputDone(int input_index) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.MarkDone();
}

bool BuildHashOperator::GenerateWorkOrders(
    std::vector<std::unique_ptr<WorkOrder>>* out) {
  // Presizing requires the full input cardinality, so builds start only
  // when the input is complete.
  if (!input_.done()) return false;
  if (!generated_) {
    buffered_ = input_.TakePending();
    if (!buffered_.empty()) InitHashTable(buffered_.front()->schema());
    if (tables_ == nullptr) {
      // Empty input: create a minimal table so probes see an empty table.
      InitHashTable(Schema(std::vector<Column>{}));
    }
    // Presize each sub-table exactly: one partition gets the whole input;
    // at radix > 0 the exchange's partition tags give per-partition counts.
    const uint32_t parts = tables_->num_partitions();
    if (parts == 1) {
      // The whole input is here, so a single integral key's range is
      // known too (cached per base table): Reserve picks the
      // direct-indexed layout when it is the smaller one.
      JoinHashTable* table = tables_->sub_table(0);
      int64_t min_key = 0;
      int64_t max_key = 0;
      if (key_cols_.size() == 1 &&
          (base_table_ != nullptr
               ? base_table_->IntegralRange(key_cols_[0], &min_key, &max_key)
               : IntegralColumnRange(buffered_, key_cols_[0], &min_key,
                                     &max_key))) {
        table->Reserve(input_.total_rows(), min_key, max_key);
      } else {
        table->Reserve(input_.total_rows());
      }
    } else {
      std::vector<uint64_t> counts(parts, 0);
      for (const Block* block : buffered_) {
        const int32_t p = block->partition();
        UOT_CHECK(p >= 0 && static_cast<uint32_t>(p) < parts);
        counts[static_cast<size_t>(p)] += block->num_rows();
      }
      tables_->ReservePartitions(counts);
    }
    if (lip_bits_per_entry_ > 0) {
      // One filter spans all partitions (inserts are atomic fetch_or, so
      // concurrent per-partition builds share it safely).
      lip_filter_ = std::make_unique<LipFilter>(input_.total_rows(),
                                                lip_bits_per_entry_);
    }
    for (Block* block : buffered_) {
      JoinHashTable* table =
          parts == 1 ? tables_->sub_table(0)
                     : tables_->sub_table(
                           static_cast<uint32_t>(block->partition()));
      auto wo = std::make_unique<BuildHashWorkOrder>(
          block, &key_cols_, &payload_cols_, table, lip_filter_.get(),
          &exec_ctx_);
      if (!input_.from_base_table()) wo->consumed_blocks.push_back(block);
      out->push_back(std::move(wo));
    }
    generated_ = true;
  }
  return true;
}

void BuildHashWorkOrder::Execute() {
  const Schema& payload_schema = hash_table_->payload_schema();
  const size_t payload_width = payload_schema.row_width();
  const uint32_t batch = ctx_->join.clamped_batch_size();
  const int dist = ctx_->join.prefetch_distance;
  const size_t words = key_cols_->size();

  // Per-work-order scratch, sized once and reused by every batch.
  std::vector<uint64_t> keys(static_cast<size_t>(batch) * words);
  std::vector<uint64_t> hashes;
  std::vector<std::byte> payloads(static_cast<size_t>(batch) * payload_width);

  uint64_t num_batches = 0;
  uint64_t prefetches = 0;
  const uint32_t num_rows = block_->num_rows();
  for (uint32_t base = 0; base < num_rows; base += batch) {
    const uint32_t m = std::min(batch, num_rows - base);
    ++num_batches;

    // Stage: columnar extraction of keys and packed payload rows.
    int64_t t0 = ctx_->StageStart();
    ExtractKeys(*block_, *key_cols_, base, m, keys.data());
    if (payload_width > 0) {
      ExtractRows(*block_, *payload_cols_, payload_schema, base, m,
                  payloads.data());
    }
    ctx_->TraceStage(worker_id, operator_index, obs::JoinBatchStage::kExtract,
                     t0, m);

    // Stage: hash the batch, prefetch home slots ahead of the inserting
    // key, claim slots in batch order.
    t0 = ctx_->StageStart();
    prefetches +=
        hash_table_->InsertBatch(keys.data(), payloads.data(), m, dist,
                                 &hashes);
    if (lip_filter_ != nullptr) {
      // The hash layout's InsertBatch leaves the batch hashes in `hashes`
      // and the LIP filter mixes the same join-key hash, so reuse them;
      // the dense layout hashes nothing, so hash here.
      if (hash_table_->dense()) {
        hashes.resize(m);
        for (uint32_t i = 0; i < m; ++i) {
          hashes[i] = HashJoinKey(keys.data() + i * words,
                                  static_cast<int>(words));
        }
      }
      for (uint32_t i = 0; i < m; ++i) lip_filter_->Insert(hashes[i]);
    }
    ctx_->TraceStage(worker_id, operator_index, obs::JoinBatchStage::kInsert,
                     t0, m);
  }

  ctx_->CountJoinKernel(worker_id, operator_index, num_batches, prefetches);
}

}  // namespace uot

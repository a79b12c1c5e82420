#include "operators/probe_hash_operator.h"

#include <algorithm>

#include "obs/trace_session.h"
#include "operators/key_util.h"
#include "operators/numeric_util.h"

namespace uot {

ProbeHashOperator::ProbeHashOperator(
    std::string name, const BuildHashOperator* build,
    std::vector<int> probe_key_cols, std::vector<int> probe_output_cols,
    JoinKind kind, std::vector<ResidualCondition> residuals,
    InsertDestination* destination)
    : Operator(std::move(name)),
      build_(build),
      probe_key_cols_(std::move(probe_key_cols)),
      probe_output_cols_(std::move(probe_output_cols)),
      kind_(kind),
      residuals_(std::move(residuals)),
      destination_(destination) {
  UOT_CHECK(probe_key_cols_.size() == 1 || probe_key_cols_.size() == 2);
  UOT_CHECK(residuals_.size() <= 4);
}

void ProbeHashOperator::ReceiveInputBlocks(int input_index,
                                           const std::vector<Block*>& blocks) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.Deliver(blocks);
}

void ProbeHashOperator::InputDone(int input_index) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.MarkDone();
}

bool ProbeHashOperator::GenerateWorkOrders(
    std::vector<std::unique_ptr<WorkOrder>>* out) {
  UOT_CHECK(build_->hash_table() != nullptr);  // blocking edge: build done
  for (Block* block : input_.TakePending()) {
    // The whole table at radix 0; the block's partition sub-table when the
    // build is partitioned (probe input then comes through an exchange
    // keyed like the build, so each block's matches are all in one
    // sub-table). The probe kernel itself is partition-oblivious.
    const JoinHashTable* table = build_->table_for_block(block);
    auto wo = std::make_unique<ProbeHashWorkOrder>(block, table, this);
    if (!input_.from_base_table()) wo->consumed_blocks.push_back(block);
    out->push_back(std::move(wo));
  }
  return input_.done();
}

void ProbeHashOperator::Finish() { destination_->Flush(); }

Schema ProbeHashOperator::OutputSchema(const Schema& probe_schema,
                                       const std::vector<int>& probe_output_cols,
                                       const Schema& build_schema,
                                       const std::vector<int>& payload_cols,
                                       JoinKind kind) {
  std::vector<Column> columns;
  for (int c : probe_output_cols) columns.push_back(probe_schema.column(c));
  if (kind == JoinKind::kInner) {
    for (int c : payload_cols) columns.push_back(build_schema.column(c));
  }
  return Schema(std::move(columns));
}

uint64_t ProbeHashOperator::ProbeRows(const Block& block, uint32_t row_begin,
                                      uint32_t n, const JoinHashTable& table,
                                      ProbeScratch* scratch, RowSink* sink,
                                      int op_index, int worker_id) const {
  const Schema& payload_schema = table.payload_schema();
  const int num_probe_cols = static_cast<int>(probe_output_cols_.size());
  const int num_payload_cols =
      kind_ == JoinKind::kInner ? payload_schema.num_columns() : 0;
  UOT_DCHECK(num_probe_cols + num_payload_cols ==
             destination_->schema().num_columns());

  const OperatorExecContext& ctx = exec_ctx_;
  const uint32_t batch = ctx.join.clamped_batch_size();
  const int dist = ctx.join.prefetch_distance;
  const size_t words = probe_key_cols_.size();
  const size_t num_res = residuals_.size();

  // No-ops once the caller's scratch reached this operator's sizes.
  std::vector<uint64_t>& keys = scratch->keys;
  std::vector<JoinMatch>& matches = scratch->matches;
  std::vector<double>& residual_vals = scratch->residual_vals;
  std::vector<uint8_t>& row_has_match = scratch->row_has_match;
  std::vector<uint32_t>& out_rows = scratch->out_rows;
  keys.resize(static_cast<size_t>(batch) * words);
  residual_vals.resize(num_res * batch);
  row_has_match.resize(kind_ == JoinKind::kInner ? 0 : batch);

  uint64_t num_batches = 0;
  uint64_t prefetches = 0;
  uint64_t emitted = 0;
  const uint32_t row_end = row_begin + n;
  for (uint32_t base = row_begin; base < row_end; base += batch) {
    const uint32_t m = std::min(batch, row_end - base);
    ++num_batches;

    // Stage: columnar extraction of keys and probe-side residual values.
    int64_t t0 = ctx.StageStart();
    ExtractKeys(block, probe_key_cols_, base, m, keys.data());
    for (size_t rc = 0; rc < num_res; ++rc) {
      const ResidualCondition& cond = residuals_[rc];
      LoadNumericColumn(block.schema().column(cond.probe_col).type,
                        block.Column(cond.probe_col), base, m,
                        residual_vals.data() + rc * batch);
    }
    ctx.TraceStage(worker_id, op_index, obs::JoinBatchStage::kExtract, t0, m);

    // Stage: hash the whole batch, prefetch home slots ahead of the
    // resolving key, collect candidate matches.
    t0 = ctx.StageStart();
    prefetches +=
        table.ProbeBatch(keys.data(), m, dist, &scratch->hashes, &matches);
    ctx.TraceStage(worker_id, op_index, obs::JoinBatchStage::kProbe, t0, m);

    // Stage: residual filter — compact `matches` in place, preserving
    // order so emission is independent of the batch size.
    if (num_res > 0 && !matches.empty()) {
      t0 = ctx.StageStart();
      size_t kept = 0;
      for (const JoinMatch& match : matches) {
        bool ok = true;
        for (size_t rc = 0; rc < num_res; ++rc) {
          const ResidualCondition& cond = residuals_[rc];
          const double build_val =
              cond.scale *
              LoadNumeric(
                  payload_schema.column(cond.payload_col).type,
                  match.payload + payload_schema.offset(cond.payload_col));
          if (!CompareValues(cond.op, residual_vals[rc * batch + match.row],
                             build_val)) {
            ok = false;
            break;
          }
        }
        if (ok) matches[kept++] = match;
      }
      matches.resize(kept);
      ctx.TraceStage(worker_id, op_index, obs::JoinBatchStage::kResidual, t0,
                     m);
    }

    // Stage: emit. List the block rows of the batch's output once (one per
    // match for inner joins, in match order), then write them block by
    // block: gather the probe columns, copy the payload columns.
    t0 = ctx.StageStart();
    out_rows.clear();
    if (kind_ == JoinKind::kInner) {
      for (const JoinMatch& match : matches) {
        out_rows.push_back(base + match.row);
      }
    } else {
      std::fill(row_has_match.begin(), row_has_match.begin() + m, uint8_t{0});
      for (const JoinMatch& match : matches) row_has_match[match.row] = 1;
      const uint8_t want = kind_ == JoinKind::kLeftSemi ? 1 : 0;
      for (uint32_t i = 0; i < m; ++i) {
        if (row_has_match[i] == want) out_rows.push_back(base + i);
      }
    }
    const uint32_t count = static_cast<uint32_t>(out_rows.size());
    for (uint32_t done = 0; done < count;) {
      Block* out = sink->BlockWithRoom();
      const uint32_t k = std::min(out->free_rows(), count - done);
      uint32_t stride = 0;
      for (int c = 0; c < num_probe_cols; ++c) {
        const int col = probe_output_cols_[static_cast<size_t>(c)];
        const ColumnAccess access = block.Column(col);
        std::byte* dst = out->AppendCursor(c, &stride);
        GatherValues(block.schema().column(col).type.width(), access.base,
                     access.stride, out_rows.data() + done, k, dst, stride);
      }
      for (int c = 0; c < num_payload_cols; ++c) {
        const JoinMatch* from = matches.data() + done;
        const uint32_t off = payload_schema.offset(c);
        std::byte* dst = out->AppendCursor(num_probe_cols + c, &stride);
        CopyValues(
            payload_schema.column(c).type.width(),
            [=](uint32_t i) { return from[i].payload + off; }, k, dst, stride);
      }
      out->CommitRows(k);
      done += k;
    }
    emitted += count;
    ctx.TraceStage(worker_id, op_index, obs::JoinBatchStage::kEmit, t0, m);
  }

  ctx.CountJoinKernel(worker_id, op_index, num_batches, prefetches);
  return emitted;
}

void ProbeHashWorkOrder::Execute() {
  ProbeHashOperator::ProbeScratch scratch;
  InsertDestination::Writer writer(op_->destination());
  op_->ProbeRows(*block_, 0, block_->num_rows(), *hash_table_, &scratch,
                 &writer, operator_index, worker_id);
}

}  // namespace uot

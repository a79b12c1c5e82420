#include "baseline/materializing_engine.h"

#include <algorithm>

#include "operators/build_hash_operator.h"
#include "operators/select_operator.h"
#include "exec/engine.h"
#include "util/timer.h"

namespace uot {

void MaterializingEngine::Drive(Operator* op) {
  std::vector<std::unique_ptr<WorkOrder>> wos;
  while (!op->GenerateWorkOrders(&wos)) {
    for (auto& wo : wos) wo->Execute();
    wos.clear();
  }
  for (auto& wo : wos) wo->Execute();
  op->Finish();
}

std::unique_ptr<Table> MaterializingEngine::MakeOutput(
    const std::string& name, Schema schema, uint64_t bytes_hint) {
  const uint64_t block_bytes =
      std::max<uint64_t>(bytes_hint, schema.row_width());
  return std::make_unique<Table>(name, std::move(schema), Layout::kRowStore,
                                 block_bytes, storage_,
                                 MemoryCategory::kTemporaryTable);
}

std::unique_ptr<Table> MaterializingEngine::Select(const Table& input,
                                                   const Predicate& pred,
                                                   const Projection& proj) {
  auto out = MakeOutput("baseline.select", proj.output_schema(),
                        input.TotalBytes() + proj.output_schema().row_width());
  InsertDestination dest(storage_, out.get(), nullptr);
  {
    InsertDestination::Writer writer(&dest);
    for (const Block* block : input.blocks()) {
      const std::vector<uint32_t> sel = pred.FilterAll(*block);
      if (!sel.empty()) proj.MaterializeInto(*block, sel, &writer);
    }
  }
  dest.Flush();
  return out;
}

std::unique_ptr<Table> MaterializingEngine::HashJoin(const Table& probe,
                                                     const Table& build,
                                                     const JoinSpec& spec) {
  OperatorExecContext exec_ctx;
  exec_ctx.join = spec.join;
  BuildHashOperator build_op("baseline.build", spec.build_keys,
                             spec.build_payload, spec.load_factor,
                             &storage_->tracker());
  build_op.BindExecContext(exec_ctx);
  build_op.InitHashTable(build.schema());
  build_op.AttachBaseTable(&build);
  Drive(&build_op);

  Schema out_schema = ProbeHashOperator::OutputSchema(
      probe.schema(), spec.probe_out,
      build_op.hash_table()->payload_schema(),
      [&] {
        std::vector<int> all;
        for (int c = 0;
             c < build_op.hash_table()->payload_schema().num_columns(); ++c) {
          all.push_back(c);
        }
        return all;
      }(),
      spec.kind);
  auto out = MakeOutput("baseline.join", std::move(out_schema),
                        probe.TotalBytes() + build.TotalBytes() + 1024);
  InsertDestination dest(storage_, out.get(), nullptr);
  ProbeHashOperator probe_op("baseline.probe", &build_op, spec.probe_keys,
                             spec.probe_out, spec.kind, spec.residuals,
                             &dest);
  probe_op.BindExecContext(exec_ctx);
  probe_op.AttachBaseTable(&probe);
  Drive(&probe_op);
  return out;
}

std::unique_ptr<Table> MaterializingEngine::GroupAggregate(
    const Table& input, std::vector<int> group_cols,
    std::vector<AggSpec> aggs, std::unique_ptr<Predicate> pred) {
  Schema out_schema =
      AggregateOperator::OutputSchema(input.schema(), group_cols, aggs);
  auto out = MakeOutput("baseline.agg", out_schema,
                        std::max<uint64_t>(1 << 20, out_schema.row_width()));
  InsertDestination dest(storage_, out.get(), nullptr);
  AggregateOperator op("baseline.agg", input.schema(), std::move(group_cols),
                       std::move(aggs), std::move(pred), &dest,
                       &storage_->tracker());
  op.AttachBaseTable(&input);
  Drive(&op);
  return out;
}

std::unique_ptr<Table> MaterializingEngine::Sort(const Table& input,
                                                 std::vector<SortKey> keys,
                                                 uint64_t limit) {
  auto out = MakeOutput("baseline.sort", input.schema(),
                        input.TotalBytes() + input.schema().row_width());
  InsertDestination dest(storage_, out.get(), nullptr);
  SortOperator op("baseline.sort", input.schema(), std::move(keys), &dest,
                  &storage_->tracker(), limit);
  op.AttachBaseTable(&input);
  Drive(&op);
  return out;
}

double MaterializingEngine::ExecutePlan(QueryPlan* plan) {
  ExecConfig config;
  config.num_workers = 1;
  config.uot = UotPolicy::HighUot();
  // The baseline is the materializing extreme of the spectrum, expressed
  // through the policy interface like every other execution mode.
  config.uot_policy = std::make_shared<FixedUotPolicy>(UotPolicy::HighUot());
  Timer timer;
  EngineConfig engine_config;
  engine_config.num_workers = config.num_workers;
  Engine engine(engine_config);
  engine.Execute(plan, config);
  return timer.ElapsedMillis();
}

}  // namespace uot

// Quickstart: build two small tables, run the paper's canonical
// select -> probe pipeline under a low and a high UoT value, and print the
// results plus per-operator statistics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "exec/query_executor.h"
#include "obs/query_profile.h"
#include "operators/build_hash_operator.h"
#include "operators/probe_hash_operator.h"
#include "operators/select_operator.h"
#include "types/row_builder.h"

using namespace uot;

int main() {
  StorageManager storage;

  // ---- 1. Create and load base tables (4 KB blocks). ----
  Schema sales_schema({{"product_id", Type::Int32()},
                       {"amount", Type::Double()}});
  Table sales("sales", sales_schema, Layout::kColumnStore, 4096, &storage,
              MemoryCategory::kBaseTable);
  Schema product_schema({{"product_id", Type::Int32()},
                         {"price", Type::Double()}});
  Table products("products", product_schema, Layout::kColumnStore, 4096,
                 &storage, MemoryCategory::kBaseTable);

  RowBuilder sale(&sales_schema);
  for (int i = 0; i < 10000; ++i) {
    sale.SetInt32(0, i % 100);          // product id
    sale.SetDouble(1, 1.0 + i % 7);     // amount
    sales.AppendRow(sale.data());
  }
  RowBuilder product(&product_schema);
  for (int i = 0; i < 100; ++i) {
    product.SetInt32(0, i);
    product.SetDouble(1, 9.99 + i);
    products.AppendRow(product.data());
  }

  // ---- 2. Build the plan: sel(sales) -> probe(build(products)). ----
  for (const bool whole_table : {false, true}) {
    QueryPlan plan(&storage);

    auto build = std::make_unique<BuildHashOperator>(
        "build(products)", std::vector<int>{0}, std::vector<int>{1}, 0.75,
        &storage.tracker());
    build->InitHashTable(product_schema);
    build->AttachBaseTable(&products);
    BuildHashOperator* build_raw = build.get();
    const int build_op = plan.AddOperator(std::move(build));

    // sigma: amount >= 5, projecting (product_id, amount).
    auto proj = Projection::Identity(sales_schema, {0, 1});
    Schema sel_schema = proj->output_schema();
    Table* sel_out = plan.CreateTempTable("sel.out", sel_schema,
                                          Layout::kRowStore, 4096);
    InsertDestination* sel_dest = plan.CreateDestination(sel_out);
    auto select = std::make_unique<SelectOperator>(
        "sel(sales)",
        Cmp(CompareOp::kGe, Col(1, Type::Double()), LitDouble(5.0)),
        std::move(proj), sel_dest);
    select->AttachBaseTable(&sales);
    const int select_op = plan.AddOperator(std::move(select));
    plan.RegisterOutput(select_op, sel_dest);

    Schema out_schema = ProbeHashOperator::OutputSchema(
        sel_schema, {0, 1}, product_schema, {1}, JoinKind::kInner);
    Table* join_out = plan.CreateTempTable("join.out", out_schema,
                                           Layout::kRowStore, 4096);
    InsertDestination* join_dest = plan.CreateDestination(join_out);
    auto probe = std::make_unique<ProbeHashOperator>(
        "probe(products)", build_raw, std::vector<int>{0},
        std::vector<int>{0, 1}, JoinKind::kInner,
        std::vector<ResidualCondition>{}, join_dest);
    const int probe_op = plan.AddOperator(std::move(probe));
    plan.RegisterOutput(probe_op, join_dest);

    plan.AddStreamingEdge(select_op, probe_op);  // UoT applies here
    plan.AddBlockingEdge(build_op, probe_op);    // probe waits for build
    plan.SetResultTable(join_out);

    // ---- 3. Execute with the chosen unit of transfer. ----
    ExecConfig config;
    config.num_workers = 2;
    config.uot = whole_table ? UotPolicy::HighUot() : UotPolicy::LowUot(1);
    const ExecutionStats stats = QueryExecutor::Execute(&plan, config);

    std::printf("=== %s ===\n", config.uot.ToString().c_str());
    std::printf("%s",
                obs::QueryProfile::FromRun(&plan, stats).ToString().c_str());
    std::printf("result rows: %llu, transfers on the select->probe edge: "
                "%llu\n",
                static_cast<unsigned long long>(join_out->NumRows()),
                static_cast<unsigned long long>(stats.edges[0].transfers));
    std::printf("%s\n", RenderTable(*join_out, 5).c_str());
  }
  std::printf("Same result either way — the UoT value is purely a "
              "scheduling knob (the paper's central observation).\n");
  return 0;
}

// Generates a small TPC-H database and runs the paper's query set,
// printing result snippets and the per-operator breakdown of one query —
// a tour of the whole engine.
//
//   UOT_SF=0.01 ./build/examples/tpch_demo

#include <cstdio>
#include <cstdlib>

#include "exec/query_executor.h"
#include "obs/query_profile.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

using namespace uot;

int main() {
  const char* sf_env = std::getenv("UOT_SF");
  const double sf = sf_env != nullptr ? std::atof(sf_env) : 0.01;

  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = sf;
  config.layout = Layout::kColumnStore;
  config.block_bytes = 256 * 1024;
  db.Generate(config);

  std::printf("TPC-H database at SF %.3f:\n", sf);
  for (const char* name : {"lineitem", "orders", "customer", "part",
                           "supplier", "partsupp", "nation", "region"}) {
    const Table* t = db.table(name);
    std::printf("  %-9s %9llu rows, %6.2f MB, %zu blocks\n", name,
                static_cast<unsigned long long>(t->NumRows()),
                static_cast<double>(t->TotalBytes()) / 1e6,
                t->blocks().size());
  }

  TpchPlanConfig plan_config;
  plan_config.block_bytes = 64 * 1024;
  ExecConfig exec;
  exec.num_workers = 2;
  exec.uot = UotPolicy::LowUot(1);

  std::printf("\nRunning the paper's 14-query set (low UoT, 2 workers):\n");
  for (int query : SupportedTpchQueries()) {
    auto plan = BuildTpchPlan(query, db, plan_config);
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    std::printf("  Q%-3d %8.2f ms, %4zu work orders, %5llu result rows\n",
                query, stats.QueryMillis(), stats.records.size(),
                static_cast<unsigned long long>(
                    plan->result_table()->NumRows()));
  }

  std::printf("\nQ1 result (pricing summary):\n");
  auto q1 = BuildTpchPlan(1, db, plan_config);
  QueryExecutor::Execute(q1.get(), exec);
  std::printf("%s", RenderTable(*q1->result_table(), 6).c_str());

  std::printf("\nQ7 per-operator breakdown (the paper's running example):\n");
  auto q7 = BuildTpchPlan(7, db, plan_config);
  const ExecutionStats stats = QueryExecutor::Execute(q7.get(), exec);
  std::printf("%s",
              obs::QueryProfile::FromRun(q7.get(), stats).ToString().c_str());
  return 0;
}

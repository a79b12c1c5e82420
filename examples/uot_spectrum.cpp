// Walks the full UoT spectrum (the paper's Fig. 1): a TPC-H select -> probe
// pipeline executed with UoT = 1, 2, 4, ... blocks up to the whole table,
// showing how transfers, the consumer's degree of parallelism and query
// time evolve.
//
//   UOT_SF=0.05 ./build/examples/uot_spectrum

#include <cstdio>
#include <cstdlib>

#include "exec/query_executor.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

using namespace uot;

int main() {
  const char* sf_env = std::getenv("UOT_SF");
  const double sf = sf_env != nullptr ? std::atof(sf_env) : 0.02;

  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = sf;
  config.block_bytes = 256 * 1024;
  db.Generate(config);

  TpchPlanConfig plan_config;
  plan_config.block_bytes = 32 * 1024;

  std::printf("TPC-H Q10 at SF %.3f across the UoT spectrum "
              "(32KB blocks, 2 workers)\n\n", sf);
  std::printf("%-18s %10s %12s %12s %12s\n", "UoT", "transfers",
              "probe DOP", "probe tasks", "query (ms)");

  for (const uint64_t uot :
       {UINT64_C(1), UINT64_C(2), UINT64_C(4), UINT64_C(8), UINT64_C(16),
        UotPolicy::kWholeTable}) {
    auto plan = BuildTpchPlan(10, db, plan_config);
    // Identify the probe fed by sel(lineitem).
    int probe_op = -1, edge_index = -1;
    for (size_t e = 0; e < plan->streaming_edges().size(); ++e) {
      const auto& edge = plan->streaming_edges()[e];
      if (plan->op(edge.producer)->name() == "sel(lineitem)") {
        probe_op = edge.consumer;
        edge_index = static_cast<int>(e);
      }
    }

    ExecConfig exec;
    exec.num_workers = 2;
    exec.uot = uot == UotPolicy::kWholeTable ? UotPolicy::HighUot()
                                             : UotPolicy::LowUot(uot);
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    std::printf("%-18s %10llu %12.2f %12llu %12.2f\n",
                exec.uot.ToString().c_str(),
                static_cast<unsigned long long>(
                    stats.edges[static_cast<size_t>(edge_index)].transfers),
                stats.AverageDop(probe_op),
                static_cast<unsigned long long>(
                    stats.operators[static_cast<size_t>(probe_op)]
                        .num_work_orders),
                stats.QueryMillis());
  }

  std::printf("\nThere is no binary pipelining-vs-blocking choice — only "
              "points on this spectrum (paper Section I).\n");
  return 0;
}

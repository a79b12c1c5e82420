// Reproduces Fig. 3: the distribution of query execution time across
// operators for the TPC-H queries (column store, high UoT value), showing
// the dominant and second-most-dominant operator shares.
//
// Per-operator task times come from each query's ExecutionStats
// (`operators[i].total_task_ns`); set UOT_OBS_DIR to also dump each
// query's Perfetto trace.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace uot;
  using namespace uot::bench;

  const double sf = ScaleFactor();
  std::printf("Fig 3: per-operator share of TPC-H query time "
              "(column store, UoT = whole table, SF=%.3f, %d workers)\n\n",
              sf, Threads());

  TpchFixture fixture(sf, Layout::kColumnStore, 2 * 1024 * 1024);
  TpchPlanConfig plan_config;
  plan_config.block_bytes = 2 * 1024 * 1024;

  ExecConfig exec;
  exec.num_workers = Threads();
  exec.uot = UotPolicy::HighUot();

  std::printf("%-5s %-22s %9s %9s %s\n", "Query", "dominant operator",
              "top-1 %", "top-2 %", "dominant is leaf?");
  for (int query : SupportedTpchQueries()) {
    ObservedRun run = RunObserved(query, fixture.db(), plan_config, exec);
    // Leaf operators are those with no incoming streaming edge (they read
    // base tables directly).
    const QueryPlan& plan = *run.plan;
    std::vector<bool> is_leaf(static_cast<size_t>(plan.num_operators()),
                              true);
    for (const QueryPlan::StreamingEdge& e : plan.streaming_edges()) {
      is_leaf[static_cast<size_t>(e.consumer)] = false;
    }
    std::vector<std::pair<double, int>> shares;
    double total = 0;
    for (int i = 0; i < plan.num_operators(); ++i) {
      const double task_ms =
          run.stats.operators[static_cast<size_t>(i)].total_task_ms();
      shares.emplace_back(task_ms, i);
      total += task_ms;
    }
    std::sort(shares.rbegin(), shares.rend());
    MaybeExportObs(run, "fig3_q" + std::to_string(query));
    if (total <= 0) continue;
    const double top1 = 100.0 * shares[0].first / total;
    const double top2 =
        shares.size() > 1 ? 100.0 * shares[1].first / total : 0.0;
    const int top_op = shares[0].second;
    std::printf("Q%-4d %-22s %8.1f%% %8.1f%% %s\n", query,
                plan.op(top_op)->name().c_str(), top1, top2,
                is_leaf[static_cast<size_t>(top_op)] ? "yes" : "no");
  }
  std::printf("\nPaper: Q1, Q6, Q13, Q14, Q15, Q19, Q22 spend >50%% in one "
              "dominant (often leaf) operator.\n");
  return 0;
}

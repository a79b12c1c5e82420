// Reproduces Table II (and the Section VI-C discussion): the memory
// footprint of the two extreme UoT strategies on the TPC-H Q07 leaf join
// cascade — low UoT must keep all probe-side hash tables live, high UoT
// materializes the selection output instead.
//
// Peaks are the memory tracker's per-category high-water marks during the
// run (ExecutionStats::peak_bytes); set UOT_OBS_DIR to also dump each
// run's Perfetto trace, whose memory counter tracks show the footprint
// timeline.

#include <cstdio>

#include "bench_util.h"
#include "model/memory_model.h"

int main() {
  using namespace uot;
  using namespace uot::bench;

  const double sf = ScaleFactor();
  std::printf("Table II: memory footprint of low vs high UoT on the Q07 "
              "cascade (SF=%.3f)\n\n", sf);

  TpchFixture fixture(sf, Layout::kColumnStore, 1 << 20);
  TpchPlanConfig plan_config;
  // Scaled blocks (DESIGN.md substitution 1) so the intermediates span
  // many blocks, as they do at the paper's SF 50.
  plan_config.block_bytes = MidBlockBytes();

  for (const bool whole_table : {false, true}) {
    ExecConfig exec;
    exec.num_workers = Threads();
    exec.uot = whole_table ? UotPolicy::HighUot() : UotPolicy::LowUot(1);
    ObservedRun run = RunObserved(7, fixture.db(), plan_config, exec);
    std::printf("%-22s peak hash tables: %8.2f MB   peak intermediates: "
                "%8.2f MB\n",
                exec.uot.ToString().c_str(),
                static_cast<double>(run.stats.PeakHashTableBytes()) / 1e6,
                static_cast<double>(run.stats.PeakTemporaryBytes()) / 1e6);
    MaybeExportObs(run, whole_table ? "table2_high_uot" : "table2_low_uot");
  }

  // Model predictions (Section VI-B): hash table on the whole orders table
  // is the dominant term, as in the paper's Q07 example.
  const Table& orders = fixture.db().orders();
  const double orders_bytes = static_cast<double>(orders.TotalBytes());
  const double ht_orders = MemoryModel::HashTableBytes(
      orders_bytes, orders.schema().row_width(),
      /*bucket=*/8 + 8 + 4 /* key + payload, pre-alignment */, 0.75);
  std::printf("\nModel: hash table over the whole orders table ~ %.2f MB "
              "(orders base table: %.2f MB)\n", ht_orders / 1e6,
              orders_bytes / 1e6);
  std::printf("Paper: at SF 100 the orders hash table is ~2.4 GB while the "
              "select output is 2.8 GB unpruned / 224 MB with LIP —\n"
              "so either strategy can have the lower footprint "
              "(Section VI-C).\n");
  return 0;
}

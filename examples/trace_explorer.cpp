// Runs one TPC-H query with tracing enabled and writes a Chrome/Perfetto
// trace:
//
//   UOT_SF=0.01 UOT_QUERY=7 ./build/examples/trace_explorer [out_prefix]
//
// produces `<out_prefix>.trace.json` (open it at https://ui.perfetto.dev
// or chrome://tracing — work-order spans per worker, UoT transfer instants,
// and queue-depth, per-edge effective-UoT and per-category memory counter
// tracks).
//
// With `--profile`, the run additionally closes the observe-model-act
// loop: a calibration pass measures oracle per-edge cardinalities, the
// cost model's predictions are attached to the plan, and the tool writes
// `<out_prefix>.profile.json` (validated, with per-edge residuals) and
// `<out_prefix>.profile.txt` (the annotated plan + calibration report).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec/query_executor.h"
#include "model/uot_chooser.h"
#include "obs/json_lite.h"
#include "obs/query_profile.h"
#include "obs/trace_json.h"
#include "obs/trace_session.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

using namespace uot;

int main(int argc, char** argv) {
  const char* sf_env = std::getenv("UOT_SF");
  const double sf = sf_env != nullptr ? std::atof(sf_env) : 0.01;
  const char* query_env = std::getenv("UOT_QUERY");
  const int query = query_env != nullptr ? std::atoi(query_env) : 7;
  bool profile_mode = false;
  std::string prefix = "q" + std::to_string(query);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      profile_mode = true;
    } else {
      prefix = argv[i];
    }
  }

  StorageManager storage;
  TpchDatabase db(&storage);
  TpchConfig config;
  config.scale_factor = sf;
  config.layout = Layout::kColumnStore;
  config.block_bytes = 256 * 1024;
  db.Generate(config);

  TpchPlanConfig plan_config;
  plan_config.block_bytes = 64 * 1024;
  auto plan = BuildTpchPlan(query, db, plan_config);

  obs::TraceSession trace;
  ExecConfig exec;
  exec.num_workers = 4;
  exec.uot = UotPolicy::LowUot(1);
  exec.trace = &trace;

  if (profile_mode) {
    // Calibration pass: measure oracle per-edge cardinalities, then attach
    // the cost model's predictions to the traced plan (without pinning its
    // UoTs, so the traced run behaves exactly like the unprofiled one and
    // the residuals grade the model, not a changed execution).
    ExecConfig calib = exec;
    calib.trace = nullptr;
    calib.drop_consumed_blocks = false;
    auto calib_plan = BuildTpchPlan(query, db, plan_config);
    QueryExecutor::Execute(calib_plan.get(), calib);
    const std::vector<EdgeEstimate> estimates =
        CostModelUotChooser::EstimatesFromExecutedPlan(*calib_plan);
    CostModelUotChooser chooser;
    CostModelUotChooser::AnnotatePredictions(
        plan.get(), chooser.ChoosePlan(*plan, estimates));
  }

  std::printf("Running TPC-H Q%d at SF %.3f with tracing%s enabled...\n",
              query, sf, profile_mode ? " and profiling" : "");
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
  const obs::QueryProfile profile = obs::QueryProfile::FromRun(
      plan.get(), stats, {"q" + std::to_string(query)});
  std::printf("%s\n", profile.ToString().c_str());

  if (profile_mode) {
    const std::string report = profile.CalibrationReport();
    if (!report.empty()) std::printf("%s\n", report.c_str());

    const std::string json = profile.ToJson();
    obs::QueryProfileSummary profile_summary;
    Status profile_status =
        obs::ParseQueryProfileJson(json, &profile_summary);
    if (!profile_status.ok()) {
      std::fprintf(stderr, "profile JSON failed validation: %s\n",
                   profile_status.ToString().c_str());
      return 1;
    }
    profile_status = profile.WriteJson(prefix + ".profile.json");
    if (profile_status.ok()) {
      profile_status = obs::WriteWholeFile(prefix + ".profile.txt",
                                           profile.ToString() + report);
    }
    if (!profile_status.ok()) {
      std::fprintf(stderr, "profile export failed: %s\n",
                   profile_status.ToString().c_str());
      return 1;
    }
    std::printf("Profile: %s.profile.json (%zu operators, %zu edges, %zu "
                "predicted, %zu UoT decisions), %s.profile.txt\n",
                prefix.c_str(), profile_summary.num_operators,
                profile_summary.num_edges,
                profile_summary.num_predicted_edges,
                profile_summary.num_uot_decisions, prefix.c_str());
  }

  const std::string trace_path = prefix + ".trace.json";
  Status status = trace.WriteChromeJson(trace_path);
  if (!status.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // Self-check: the file we just wrote must be a valid trace_event JSON
  // document with time-ordered events.
  obs::ChromeTraceSummary summary;
  status = obs::ParseChromeTraceJson(trace.ToChromeJson(), &summary);
  if (!status.ok() || !summary.timestamps_monotonic) {
    std::fprintf(stderr, "exported trace failed validation: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  std::printf("Trace: %s (%zu events: %zu spans, %zu instants, %zu counter "
              "samples; %.3f ms covered)\n",
              trace_path.c_str(), summary.num_events, summary.num_complete,
              summary.num_instant, summary.num_counter,
              (summary.last_ts_us - summary.first_ts_us) / 1000.0);
  std::printf("\nOpen the trace in https://ui.perfetto.dev (or "
              "chrome://tracing):\n"
              "  - each \"worker N\" track shows that worker's work-order "
              "spans (args carry the operator name);\n"
              "  - the coordinator track shows UoT transfers, edge flushes "
              "and budget events;\n"
              "  - counter tracks plot queue depths, each edge's effective "
              "UoT and per-category memory over time (Table II's "
              "timeline).\n");
  return 0;
}

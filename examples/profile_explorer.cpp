// Offline profile analysis: loads a query-profile JSON document (written
// by `trace_explorer --profile` or obs::QueryProfile::WriteJson) and
// prints the model-calibration picture an engine developer acts on —
// the worst-calibrated edges (largest relative residuals) and the p99
// work-order latency per operator:
//
//   ./build/examples/profile_explorer q3.profile.json [top_n]
//
// Everything is read back through the dependency-free json_lite parser,
// so this tool doubles as an end-to-end check that exported profiles
// survive a round trip.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_lite.h"
#include "obs/query_profile.h"

using namespace uot;

namespace {

struct EdgeCalibration {
  int edge = -1;
  std::string producer;
  std::string consumer;
  double rel_err = 0.0;
  int64_t residual_transfers = 0;
  int64_t residual_bytes = 0;
  int64_t residual_footprint = 0;
  std::string reason;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <profile.json> [top_n]\n"
                 "  (write one with: trace_explorer --profile)\n",
                 argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  const size_t top_n =
      argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 5;

  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  // Structural validation first: a malformed profile is reported as such,
  // not as a crash three accessors later.
  obs::QueryProfileSummary summary;
  const Status status = obs::ParseQueryProfileJson(json, &summary);
  if (!status.ok()) {
    std::fprintf(stderr, "%s is not a valid query profile: %s\n",
                 path.c_str(), status.ToString().c_str());
    return 1;
  }

  obs::JsonValue root;
  if (!obs::JsonValue::Parse(json, &root).ok()) return 1;

  std::printf("Profile %s: query \"%s\" (id %llu), %zu operators, %zu "
              "edges (%zu predicted), %zu UoT decisions, %zu budget "
              "events\n\n",
              path.c_str(), summary.query_name.c_str(),
              static_cast<unsigned long long>(summary.query_id),
              summary.num_operators, summary.num_edges,
              summary.num_predicted_edges, summary.num_uot_decisions,
              summary.num_budget_events);

  // p99 work-order latency per operator.
  std::printf("Per-operator work-order latency (p50 / p95 / p99 ms):\n");
  for (const obs::JsonValue& op : root.Find("operators")->AsArray()) {
    const obs::JsonValue* latency = op.Find("latency");
    std::printf("  op[%2d] %-24s %8.3f / %8.3f / %8.3f  (%llu work orders)\n",
                static_cast<int>(op.NumberOr("op", -1)),
                op.StringOr("name", "?").c_str(),
                latency->NumberOr("p50", 0) / 1e6,
                latency->NumberOr("p95", 0) / 1e6,
                latency->NumberOr("p99", 0) / 1e6,
                static_cast<unsigned long long>(
                    op.NumberOr("work_orders", 0)));
  }

  // Worst-calibrated edges, by the exported relative error.
  std::vector<EdgeCalibration> calibrated;
  for (const obs::JsonValue& edge : root.Find("edges")->AsArray()) {
    const obs::JsonValue* residuals = edge.Find("residuals");
    if (residuals == nullptr) continue;
    EdgeCalibration c;
    c.edge = static_cast<int>(edge.NumberOr("edge", -1));
    c.producer = edge.StringOr("producer_name", "?");
    c.consumer = edge.StringOr("consumer_name", "?");
    c.rel_err = residuals->NumberOr("rel_err", 0);
    c.residual_transfers =
        static_cast<int64_t>(residuals->NumberOr("transfers", 0));
    c.residual_bytes = static_cast<int64_t>(residuals->NumberOr("bytes", 0));
    c.residual_footprint =
        static_cast<int64_t>(residuals->NumberOr("footprint_bytes", 0));
    c.reason = edge.Find("prediction")->StringOr("reason", "?");
    calibrated.push_back(std::move(c));
  }
  if (calibrated.empty()) {
    std::printf("\nNo model predictions in this profile (run the query "
                "through a CostModelUotChooser-annotated plan to get "
                "residuals).\n");
    return 0;
  }
  std::sort(calibrated.begin(), calibrated.end(),
            [](const EdgeCalibration& a, const EdgeCalibration& b) {
              return a.rel_err > b.rel_err;
            });
  std::printf("\nWorst-calibrated edges (top %zu of %zu, by relative "
              "error):\n",
              std::min(top_n, calibrated.size()), calibrated.size());
  for (size_t i = 0; i < calibrated.size() && i < top_n; ++i) {
    const EdgeCalibration& c = calibrated[i];
    std::printf("  edge[%2d] %s -> %s: rel_err %.3f, residual transfers "
                "%+lld, bytes %+lld, footprint %+lld [%s]\n",
                c.edge, c.producer.c_str(), c.consumer.c_str(), c.rel_err,
                static_cast<long long>(c.residual_transfers),
                static_cast<long long>(c.residual_bytes),
                static_cast<long long>(c.residual_footprint),
                c.reason.c_str());
  }
  return 0;
}

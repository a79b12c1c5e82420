// uotbench: the repository benchmark binary.
//
//   uotbench --workload <tpch_vectorized|ssb_fused|server_mix> --seed <n>
//            --seconds <s> --trace <0|1> [--sf <scale>] [--setup-reps <n>]
//            [--source <id>] [--trace-dir <dir>]
//
// Prints one metadata line ({"uotbench_meta": ...}) and, as the last line
// of stdout, the result object {"correct", "attempted", "failed",
// "metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Progress goes to stderr. Exits 0 when every checked result
// matched its reference, 1 when one did not, 2 on bad arguments and 3
// when set-up failed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: uotbench --workload <tpch_vectorized|ssb_fused|"
               "server_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--sf <scale>] [--setup-reps <n>] [--source <id>] "
               "[--trace-dir <dir>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  uotbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (arg == "--sf") {
      options.scale_factor = std::atof(value);
    } else if (arg == "--setup-reps") {
      options.setup_reps = std::atoi(value);
    } else if (arg == "--source") {
      options.source_id = value;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (options.seconds <= 0) {
    Usage();
    return 2;
  }

  uotbench::Result result;
  bool ran = false;
  if (options.workload == "tpch_vectorized") {
    ran = uotbench::RunTpchVectorized(options, &result);
  } else if (options.workload == "ssb_fused") {
    ran = uotbench::RunSsbFused(options, &result);
  } else if (options.workload == "server_mix") {
    ran = uotbench::RunServerMix(options, &result);
  } else {
    Usage();
    return 2;
  }
  if (!ran) {
    std::fprintf(stderr, "uotbench: set-up failed\n");
    return 3;
  }
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

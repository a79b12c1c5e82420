// The server binary: loads a TPC-H catalog and serves the text protocol
// over TCP (or stdin with --stdin). See DESIGN.md "Serving".
//
// Usage: uot_server [--port N] [--stdin] [--workers N] [--sf F]
//                   [--max-inflight N] [--budget-mb N]
//                   [--tenant name:max_inflight:memory_share]...
//
// With --stdin the server reads statements from stdin and writes replies
// to stdout (CI smoke tests, piping). Otherwise it binds 127.0.0.1:port
// (default 5433; 0 picks an ephemeral port) and prints the bound port.
//
// Each --tenant adds an engine admission class that connections select
// with SET TENANT <name>: at most max_inflight of its queries run at once
// (0 = unlimited) and each gets memory_share (0 < share <= 1) of the
// --budget-mb budget. The "default" class is unlimited with share 1 unless
// redefined. A malformed or repeated spec exits with code 2.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "server/text_server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  int port = 5433;
  bool use_stdin = false;
  int workers = 4;
  double scale_factor = 0.01;
  int max_inflight = 0;
  int64_t budget_mb = 0;
  uot::server::FrontEndConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--port") port = std::atoi(next());
    else if (arg == "--stdin") use_stdin = true;
    else if (arg == "--workers") workers = std::atoi(next());
    else if (arg == "--sf") scale_factor = std::atof(next());
    else if (arg == "--max-inflight") max_inflight = std::atoi(next());
    else if (arg == "--budget-mb") budget_mb = std::atoll(next());
    else if (arg == "--tenant") {
      const uot::Status status = uot::server::ParseTenantSpec(
          next(), &config.engine.admission_classes);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.message().c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  uot::StorageManager storage;
  uot::TpchDatabase db(&storage);
  uot::TpchConfig tpch_config;
  tpch_config.scale_factor = scale_factor;
  std::fprintf(stderr, "[uot_server] generating TPC-H sf=%g ...\n",
               scale_factor);
  db.Generate(tpch_config);
  uot::server::Catalog catalog(&storage);
  catalog.RegisterTpch(&db);

  config.engine.num_workers = workers;
  config.engine.max_inflight_queries = max_inflight;
  config.engine.memory_budget_bytes = budget_mb * (1 << 20);
  config.chooser.threads = workers;
  config.chooser.memory_budget_bytes = config.engine.memory_budget_bytes;
  uot::server::FrontEnd frontend(config, &catalog);

  if (use_stdin) {
    uot::server::RunStdioLoop(&frontend, std::cin, std::cout);
    frontend.Shutdown();
    return 0;
  }

  uot::server::TextServer tcp(&frontend);
  const uot::Status status = tcp.Start(port);
  if (!status.ok()) {
    std::fprintf(stderr, "[uot_server] %s\n", status.ToString().c_str());
    return 1;
  }
  // Port on stdout so scripts can scrape it (ephemeral-port mode).
  std::printf("LISTENING 127.0.0.1:%d\n", tcp.port());
  std::fflush(stdout);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  std::fprintf(stderr, "[uot_server] shutting down\n");
  tcp.Stop();
  frontend.Shutdown();
  return 0;
}

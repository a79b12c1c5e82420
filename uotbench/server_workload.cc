// server_mix: TCP clients against an in-process TextServer over TPC-H
// SF 0.01, sending the 8-statement mix (6 SQL templates, one of them a
// join, plus TPCH 1 and TPCH 6) with literals drawn from the seed.
//
// Set-up generates the data, starts the FrontEnd and TextServer, and sends
// every statement of the literal space once through FrontEnd::Handle: that
// warms the plan cache (one miss per template) and records each
// statement's reference rows. The untraced run alternates, in rounds,
//   1. serial: one connection sending a seeded sequence of the 8 classes
//      back to back (per-query memory peak);
//   2. closed loop: 4 connections back to back (capacity per window, and
//      per-request and per-class latency under full load).
// The traced run measures unit costs of ParseSelect /
// PlanCompiler::Compile, then an open loop of 4 connections at a fixed
// total rate (each request timed from its scheduled send time), and an
// in-process open loop over FrontEnd::Handle on the same schedule. Open-loop
// latency is a per-layer metric: on a shared host its run-to-run spread is
// several times that of the closed loop.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "server/catalog.h"
#include "server/frontend.h"
#include "server/plan_compiler.h"
#include "server/sql_parser.h"
#include "server/text_server.h"
#include "storage/storage_manager.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace uotbench {
namespace {

constexpr double kScaleFactor = 0.01;
/// Offered load of the open loop, requests per second over all
/// connections: about 40% of the 4-worker capacity on a 4-core machine.
constexpr double kOpenLoopRate = 240.0;
constexpr int kConnections = kWorkers;
constexpr int kNumClasses = 8;
/// Literals are drawn from [kLiteralBase, kLiteralBase + kLiteralSpan).
constexpr int kLiteralBase = 10;
constexpr int kLiteralSpan = 40;
/// The closed loop's throughput is taken per window of this length.
constexpr double kCapacityWindowS = 0.25;
/// The untraced phases alternate in this many rounds.
constexpr int kRounds = 4;

/// The statement of class `cls` with literal `literal`.
std::string Statement(int cls, int literal) {
  switch (cls) {
    case 0:
      return "select count(*), sum(l_quantity) from lineitem where "
             "l_quantity < " + std::to_string(literal);
    case 1:
      return "select l_returnflag, sum(l_extendedprice) from lineitem "
             "group by l_returnflag";
    case 2:
      return "select count(*) from orders where o_totalprice < " +
             std::to_string(literal * 1000);
    case 3:
      return "tpch 6";
    case 4:
      return "select l_linestatus, count(*) from lineitem where "
             "l_discount < 0." + std::to_string(literal % 10) +
             " group by l_linestatus";
    case 5:
      return "select count(*) from lineitem join orders on l_orderkey = "
             "o_orderkey where l_quantity > " + std::to_string(literal);
    case 6:
      return "tpch 1";
    default:
      return "select max(l_extendedprice), min(l_extendedprice) from "
             "lineitem where l_quantity = " +
             std::to_string(literal % 50 + 1);
  }
}

struct Request {
  int cls = 0;
  std::string text;
};

/// A seeded request sequence: classes round-robin, literals random.
std::vector<Request> MakeRequests(std::mt19937_64* rng, size_t n) {
  std::vector<Request> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % kNumClasses);
    const int literal = kLiteralBase + static_cast<int>((*rng)() %
                                                        kLiteralSpan);
    out.push_back({cls, Statement(cls, literal)});
  }
  return out;
}

/// A blocking client of the newline text protocol on one connection.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return connected_; }

  /// Sends one statement and reads its reply; true iff the reply is OK.
  /// `*rows` receives the CSV lines between the header and END.
  bool Roundtrip(const std::string& statement, std::string* rows) {
    const std::string line = statement + "\n";
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    rows->clear();
    std::string reply;
    if (!ReadLine(&reply) || reply.rfind("OK", 0) != 0) return false;
    while (ReadLine(&reply)) {
      if (reply == "END") return true;
      *rows += reply;
      *rows += '\n';
    }
    return false;
  }

 private:
  bool ReadLine(std::string* out) {
    size_t newline;
    while ((newline = buffer_.find('\n', scanned_)) == std::string::npos) {
      scanned_ = buffer_.size();
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    out->assign(buffer_, 0, newline);
    buffer_.erase(0, newline + 1);
    scanned_ = 0;
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
  size_t scanned_ = 0;
};

/// The serving stack; members are declared so that destruction stops the
/// TCP server, then the front end, then frees the data.
struct ServerState {
  std::unique_ptr<uot::StorageManager> storage;
  std::unique_ptr<uot::TpchDatabase> db;
  std::unique_ptr<uot::server::Catalog> catalog;
  std::unique_ptr<uot::server::FrontEnd> frontend;
  std::unique_ptr<uot::server::TextServer> tcp;
  std::map<std::string, std::string> reference;  // statement -> rows

  ~ServerState() {
    if (tcp != nullptr) tcp->Stop();
    if (frontend != nullptr) frontend->Shutdown();
  }
};

bool SetUp(double sf, uint64_t seed, ServerState* st) {
  st->storage = std::make_unique<uot::StorageManager>();
  st->db = std::make_unique<uot::TpchDatabase>(st->storage.get());
  uot::TpchConfig tpch_config;
  tpch_config.scale_factor = sf;
  tpch_config.seed = seed;
  st->db->Generate(tpch_config);
  st->catalog = std::make_unique<uot::server::Catalog>(st->storage.get());
  st->catalog->RegisterTpch(st->db.get());

  uot::server::FrontEndConfig config;
  config.engine.num_workers = kWorkers;
  config.chooser.threads = kWorkers;
  st->frontend =
      std::make_unique<uot::server::FrontEnd>(config, st->catalog.get());
  st->tcp = std::make_unique<uot::server::TextServer>(st->frontend.get());
  const uot::Status status = st->tcp->Start(0);
  if (!status.ok()) {
    std::fprintf(stderr, "uotbench: server start failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  // Every statement of the literal space, once: plan-cache warm-up and
  // the reference replies.
  for (int cls = 0; cls < kNumClasses; ++cls) {
    for (int lit = kLiteralBase; lit < kLiteralBase + kLiteralSpan; ++lit) {
      const std::string text = Statement(cls, lit);
      if (st->reference.count(text) > 0) continue;
      uot::server::Request request;
      request.text = text;
      const uot::server::Response resp = st->frontend->Handle(request);
      if (!resp.ok) {
        std::fprintf(stderr, "uotbench: warm-up '%s' failed: %s\n",
                     text.c_str(), resp.error.c_str());
        return false;
      }
      st->reference[text] = resp.rows_csv;
    }
  }
  return true;
}

/// One completed request of a loaded phase.
struct Sample {
  size_t k = 0;  // position in the request schedule
  int cls = 0;
  double latency_ms = 0;  // from the scheduled send time (open loop)
  double lag_ms = 0;      // how late the request was sent
  double exec_ms = 0;     // Response::exec_ms (in-process phase only)
  double handle_ms = 0;   // FrontEnd::Handle duration (in-process only)
};


bool CheckRows(const ServerState& st, const std::string& text,
               const std::string& rows) {
  const auto it = st.reference.find(text);
  return it != st.reference.end() && SameRows(it->second, rows);
}

/// Runs `requests` open loop: request k is due at start + k / rate on
/// connection k % kConnections. Each connection's thread gets its sender
/// from `make_sender(c)`; a sender fills the sample's layer fields and
/// returns whether the reply was correct. Latency counts from the due time,
/// so a stall also delays every request queued behind it.
template <typename MakeSender>
std::vector<Sample> OpenLoop(const std::vector<Request>& requests,
                     MakeSender&& make_sender, Result* result) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<Sample>> per_conn(kConnections);
  std::vector<std::vector<bool>> ok_flags(kConnections);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      auto send = make_sender(c);
      for (size_t k = static_cast<size_t>(c); k < requests.size();
           k += kConnections) {
        const Clock::time_point due =
            start + std::chrono::nanoseconds(static_cast<int64_t>(
                        1e9 * static_cast<double>(k) / kOpenLoopRate));
        std::this_thread::sleep_until(due);
        Sample s;
        s.k = k;
        s.cls = requests[k].cls;
        const Clock::time_point sent = Clock::now();
        const bool ok = send(requests[k], &s);
        const Clock::time_point done = Clock::now();
        ok_flags[c].push_back(ok);
        if (!ok) continue;
        s.latency_ms =
            std::chrono::duration<double, std::milli>(done - due).count();
        s.lag_ms =
            std::chrono::duration<double, std::milli>(sent - due).count();
        per_conn[c].push_back(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> out;
  for (int c = 0; c < kConnections; ++c) {
    for (bool ok : ok_flags[c]) result->Count(ok);
    out.insert(out.end(), per_conn[c].begin(), per_conn[c].end());
  }
  return out;
}

/// Open loop over TCP, one client connection per thread.
std::vector<Sample> OpenLoopTcp(ServerState* st, const std::vector<Request>& requests,
                        Result* result) {
  return OpenLoop(
      requests,
      [st](int) {
        return [st, client = std::make_unique<Client>(st->tcp->port()),
                rows = std::string()](const Request& r, Sample*) mutable {
          return client->connected() && client->Roundtrip(r.text, &rows) &&
                 CheckRows(*st, r.text, rows);
        };
      },
      result);
}

/// Open loop in-process on the same schedule: FrontEnd::Handle called
/// directly, each call recorded as a span.
std::vector<Sample> OpenLoopHandle(ServerState* st,
                           const std::vector<Request>& requests,
                           SpanRecorder* spans, Result* result) {
  return OpenLoop(
      requests,
      [st, spans](int c) {
        return [st, spans, c](const Request& r, Sample* s) {
          uot::server::Request request;
          request.text = r.text;
          const int64_t t0 = uot::NowNanos();
          const uot::server::Response resp = st->frontend->Handle(request);
          const int64_t t1 = uot::NowNanos();
          spans->Record("server",
                        "FrontEnd::Handle " +
                            StatementClasses()[static_cast<size_t>(r.cls)],
                        t0, t1, s->k + 1, 0, c + 1);
          s->handle_ms = NsToMs(t1 - t0);
          s->exec_ms = resp.exec_ms;
          return resp.ok && CheckRows(*st, r.text, resp.rows_csv);
        };
      },
      result);
}

/// Closed loop over TCP: each connection sends back to back until the
/// deadline. Appends the completed requests per second of each
/// kCapacityWindowS window to `*per_window`, each request's latency to
/// `*latency_ms` and to its class's entry of `*class_latency_ms`.
void ClosedLoopTcp(ServerState* st, const std::vector<Request>& requests,
                   double seconds, Result* result,
                   std::vector<double>* per_window,
                   std::vector<double>* latency_ms,
                   std::vector<std::vector<double>>* class_latency_ms) {
  std::vector<std::vector<int64_t>> done_ns(kConnections);
  std::vector<std::vector<double>> conn_latency_ms(kConnections);
  std::vector<std::vector<int>> conn_class(kConnections);
  std::vector<std::vector<bool>> ok_flags(kConnections);
  const int64_t start = uot::NowNanos();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Client client(st->tcp->port());
      std::string rows;
      size_t k = static_cast<size_t>(c) * requests.size() / kConnections;
      while (uot::NowNanos() < deadline) {
        const Request& r = requests[k++ % requests.size()];
        const int64_t sent = uot::NowNanos();
        const bool ok = client.connected() && client.Roundtrip(r.text, &rows) &&
                        CheckRows(*st, r.text, rows);
        ok_flags[c].push_back(ok);
        if (!ok) break;
        done_ns[c].push_back(uot::NowNanos());
        conn_latency_ms[c].push_back(NsToMs(done_ns[c].back() - sent));
        conn_class[c].push_back(r.cls);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(seconds / kCapacityWindowS));
  std::vector<double> rates(windows, 0.0);
  for (int c = 0; c < kConnections; ++c) {
    for (bool ok : ok_flags[c]) result->Count(ok);
    latency_ms->insert(latency_ms->end(), conn_latency_ms[c].begin(),
                       conn_latency_ms[c].end());
    for (size_t i = 0; i < conn_class[c].size(); ++i) {
      (*class_latency_ms)[static_cast<size_t>(conn_class[c][i])].push_back(
          conn_latency_ms[c][i]);
    }
    for (int64_t t : done_ns[c]) {
      const size_t w = static_cast<size_t>(static_cast<double>(t - start) /
                                           (kCapacityWindowS * 1e9));
      if (w < windows) rates[w] += 1.0 / kCapacityWindowS;
    }
  }
  per_window->insert(per_window->end(), rates.begin(), rates.end());
}

/// Serial requests over one connection: per pass of the 8 classes, the
/// largest per-query memory peak.
struct SerialResult {
  std::vector<double> pass_peak_mb;
  double open_pass_peak_mb = 0;  // the pass still in progress
};

/// Sends `requests` in order from `*next`, wrapping around, until `seconds`
/// have passed (at least one request per class), adding to `*out`.
void SerialTcp(ServerState* st, const std::vector<Request>& requests,
               double seconds, size_t* next, Result* result,
               SerialResult* out) {
  Client client(st->tcp->port());
  std::string rows;
  const uot::MemoryTracker& tracker = st->storage->tracker();
  const int64_t end = uot::NowNanos() + static_cast<int64_t>(seconds * 1e9);
  for (int sent = 0; sent < kNumClasses || uot::NowNanos() < end; ++sent) {
    const Request& r = requests[(*next)++ % requests.size()];
    const bool ok = client.connected() && client.Roundtrip(r.text, &rows) &&
                    CheckRows(*st, r.text, rows);
    result->Count(ok);
    // Sessions rebase the tracker's peaks when they start, so after a
    // serial request they hold that query's high-water mark.
    const double peak = static_cast<double>(
        tracker.Peak(uot::MemoryCategory::kTemporaryTable) +
        tracker.Peak(uot::MemoryCategory::kHashTable));
    out->open_pass_peak_mb =
        std::max(out->open_pass_peak_mb, peak / (1024.0 * 1024.0));
    if (*next % kNumClasses == 0) {
      out->pass_peak_mb.push_back(out->open_pass_peak_mb);
      out->open_pass_peak_mb = 0;
    }
  }
}

/// Serial pass of the 8 classes through FrontEnd::Handle. Returns the
/// pass wall time in ms.
double SerialHandle(ServerState* st, const std::vector<Request>& pass,
                    SpanRecorder* spans, Result* result) {
  const int64_t t0 = uot::NowNanos();
  for (const Request& r : pass) {
    uot::server::Request request;
    request.text = r.text;
    const int64_t s0 = uot::NowNanos();
    const uot::server::Response resp = st->frontend->Handle(request);
    spans->Record("server",
                  "FrontEnd::Handle " +
                      StatementClasses()[static_cast<size_t>(r.cls)],
                  s0, uot::NowNanos(), 0);
    result->Count(resp.ok && CheckRows(*st, r.text, resp.rows_csv));
  }
  return NsToMs(uot::NowNanos() - t0);
}

/// The p-quantile of the admission waits recorded into `hist` since the
/// bucket counts `before` were taken, in ms (bucket upper bounds).
double HistogramDeltaQuantile(const uot::obs::Histogram& hist,
                              const std::vector<uint64_t>& before, double p) {
  uint64_t total = 0;
  std::vector<uint64_t> delta(hist.num_buckets());
  for (size_t i = 0; i < hist.num_buckets(); ++i) {
    delta[i] = hist.bucket_count(i) - (i < before.size() ? before[i] : 0);
    total += delta[i];
  }
  if (total == 0) return 0.0;
  const double rank = p * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    seen += delta[i];
    if (static_cast<double>(seen) >= rank) {
      if (i + 1 == delta.size()) return NsToMs(hist.Max());
      return NsToMs(hist.bucket_upper_bound(i));
    }
  }
  return NsToMs(hist.Max());
}

std::vector<uint64_t> BucketCounts(const uot::obs::Histogram& hist) {
  std::vector<uint64_t> counts(hist.num_buckets());
  for (size_t i = 0; i < counts.size(); ++i) counts[i] = hist.bucket_count(i);
  return counts;
}

/// Median per-call time (us) of `fn` over `iterations` calls.
template <typename Fn>
double UnitCostUs(int iterations, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    const int64_t t0 = uot::NowNanos();
    fn();
    us.push_back(static_cast<double>(uot::NowNanos() - t0) / 1e3);
  }
  return Median(us);
}

}  // namespace

bool RunServerMix(const RunOptions& options, Result* result) {
  const double sf =
      options.scale_factor > 0 ? options.scale_factor : kScaleFactor;
  std::printf("%s\n", MetaJson(options, sf).c_str());
  SpanRecorder spans(false);

  // Untraced: serial 10%, closed loop 90%. Traced: serial 10%, then TCP
  // and in-process open loops 40% each.
  const double serial_s = std::max(0.2, 0.1 * options.seconds);
  const double open_s = 0.4 * options.seconds;
  const double closed_s = 0.9 * options.seconds;
  std::mt19937_64 rng(options.seed);
  const std::vector<Request> serial_requests = MakeRequests(&rng, 2048);
  const std::vector<Request> serial_pass(serial_requests.begin(),
                                         serial_requests.begin() + kNumClasses);
  const std::vector<Request> open_requests = MakeRequests(
      &rng, std::max<size_t>(kNumClasses,
                             static_cast<size_t>(open_s * kOpenLoopRate)));
  const std::vector<Request> closed_requests = MakeRequests(&rng, 4096);

  std::vector<double> setup_s;
  std::unique_ptr<ServerState> state;
  for (int rep = 0; rep < std::max(1, options.setup_reps); ++rep) {
    state.reset();
    state = std::make_unique<ServerState>();
    const int64_t t0 = uot::NowNanos();
    if (!SetUp(sf, options.seed, state.get())) return false;
    setup_s.push_back(static_cast<double>(uot::NowNanos() - t0) / 1e9);
    std::fprintf(stderr, "uotbench: set-up %d: %.3f s\n", rep,
                 setup_s.back());
  }
  ServerState* st = state.get();

  if (!options.trace) {
    // Serial and closed-loop phases alternate in rounds, so a burst of
    // outside load lands in one round's share of each.
    SerialResult serial;
    size_t next_serial = 0;
    std::vector<double> capacity_windows, closed_ms;
    std::vector<std::vector<double>> closed_class_ms(kNumClasses);
    for (int round = 0; round < kRounds; ++round) {
      SerialTcp(st, serial_requests, serial_s / kRounds, &next_serial, result,
                &serial);
      ClosedLoopTcp(st, closed_requests, closed_s / kRounds, result,
                    &capacity_windows, &closed_ms, &closed_class_ms);
    }
    // Per-class latency comes from the closed loop: unloaded serial requests
    // time mostly how fast idle threads wake on a shared host.
    std::vector<double> class_ms;
    for (const std::vector<double>& v : closed_class_ms) {
      class_ms.push_back(Median(v));
    }
    double suite_ms = 0;
    for (double ms : class_ms) suite_ms += ms;
    const double capacity = Median(capacity_windows);
    std::fprintf(stderr, "uotbench: closed loop n=%zu, capacity %.1f qps\n",
                 closed_ms.size(), capacity);

    result->Set("setup_s", Median(setup_s), "s");
    result->Set("suite_s", suite_ms / 1e3, "s");
    result->Set("query_geomean_ms", Geomean(class_ms), "ms");
    // Pass peaks move in whole blocks with scheduling, so their median
    // jumps a block between runs; the mean over the passes does not.
    double peak_sum = 0;
    for (double mb : serial.pass_peak_mb) peak_sum += mb;
    result->Set("peak_mem_mb",
                peak_sum / static_cast<double>(
                               std::max<size_t>(1, serial.pass_peak_mb.size())),
                "MB");
    result->Set("p50_ms", Quantile(closed_ms, 0.5), "ms");
    result->Set("p99_ms", Quantile(closed_ms, 0.99), "ms");
    result->Set("capacity_qps", capacity, "1/s");
    return true;
  }

  std::map<std::string, double> m;
  uot::server::FrontEnd* frontend = st->frontend.get();

  // Span overhead: alternate untraced and traced serial passes.
  std::vector<double> untraced_ms, traced_ms;
  const int64_t serial_end = uot::NowNanos() + static_cast<int64_t>(serial_s * 1e9);
  while (traced_ms.size() < 2 || uot::NowNanos() < serial_end) {
    const bool traced = untraced_ms.size() > traced_ms.size();
    spans.set_enabled(traced);
    (traced ? traced_ms : untraced_ms)
        .push_back(SerialHandle(st, serial_pass, &spans, result));
  }
  spans.set_enabled(true);
  m["trace.overhead_frac"] = Median(traced_ms) / Median(untraced_ms) - 1.0;

  // Serial unit costs of the layers in front of the engine.
  uot::server::PlanCompiler compiler(st->catalog.get(), uot::PlanBuilderConfig());
  for (const Request& r : serial_pass) {
    const std::string& cls = StatementClasses()[static_cast<size_t>(r.cls)];
    if (r.text.rfind("tpch", 0) == 0) {
      const int q = std::atoi(r.text.c_str() + 5);
      const uot::PlanBuilderConfig plan_config;
      m["server.compile_us." + cls] = UnitCostUs(200, [&] {
        std::unique_ptr<uot::QueryPlan> plan =
            uot::BuildTpchPlan(q, *st->db, plan_config);
      });
      continue;
    }
    uot::server::SelectStatement stmt;
    m["server.parse_us." + cls] = UnitCostUs(500, [&] {
      stmt = uot::server::SelectStatement();
      (void)uot::server::ParseSelect(r.text, &stmt);
    });
    // The radix bits the cache holds for the template (joins only).
    uot::server::PlanCacheEntry entry;
    const std::string fingerprint =
        st->catalog->CardinalityFingerprint(stmt.Tables()) +
        frontend->KnobFingerprint();
    const int radix =
        frontend->plan_cache()->Lookup(stmt.TemplateKey(), fingerprint,
                                       &entry) ==
                uot::server::PlanCache::Outcome::kHit
            ? entry.radix_bits
            : 0;
    bool compiled = true;
    m["server.compile_us." + cls] = UnitCostUs(200, [&] {
      std::unique_ptr<uot::QueryPlan> plan;
      compiled = compiled && compiler.Compile(stmt, {}, radix, &plan).ok();
    });
    if (!compiled) result->Fail("compile failed: " + r.text);
  }

  // Open loop over TCP, untraced: wire latency per class and send lag.
  const std::vector<Sample> tcp = OpenLoopTcp(st, open_requests, result);
  std::vector<double> tcp_latency, lag;
  std::vector<std::vector<double>> per_class(kNumClasses);
  for (const Sample& s : tcp) {
    tcp_latency.push_back(s.latency_ms);
    lag.push_back(s.lag_ms);
    per_class[static_cast<size_t>(s.cls)].push_back(s.latency_ms);
  }
  for (int c = 0; c < kNumClasses; ++c) {
    m["stmt." + StatementClasses()[static_cast<size_t>(c)] + ".p50_ms"] =
        Median(per_class[static_cast<size_t>(c)]);
  }
  m["client.send_lag_p99_ms"] = Quantile(lag, 0.99);
  m["client.open_p50_ms"] = Quantile(tcp_latency, 0.5);
  m["client.open_p99_ms"] = Quantile(tcp_latency, 0.99);

  // Open loop in-process on the same schedule, traced.
  const uot::obs::Histogram* admission =
      frontend->engine()->metrics()->FindHistogram("engine.admission_wait_ns");
  const std::vector<uint64_t> admission_before =
      admission != nullptr ? BucketCounts(*admission) : std::vector<uint64_t>();
  const uint64_t hits0 = frontend->plan_cache()->hits();
  const uint64_t misses0 = frontend->plan_cache()->misses();
  const uint64_t invalid0 = frontend->plan_cache()->invalidations();
  const uint64_t evals0 = frontend->model_evaluations();
  const std::vector<Sample> handle = OpenLoopHandle(st, open_requests, &spans, result);
  const double hits =
      static_cast<double>(frontend->plan_cache()->hits() - hits0);
  const double misses =
      static_cast<double>(frontend->plan_cache()->misses() - misses0);
  const double invalid =
      static_cast<double>(frontend->plan_cache()->invalidations() - invalid0);
  std::vector<double> handle_ms, exec_ms, nonexec_ms;
  double handle_sum = 0, negative = 0;
  for (const Sample& s : handle) {
    handle_ms.push_back(s.handle_ms);
    exec_ms.push_back(s.exec_ms);
    nonexec_ms.push_back(s.handle_ms - s.exec_ms);
    handle_sum += s.handle_ms;
    negative += std::max(0.0, s.exec_ms - s.handle_ms);
  }
  m["server.handle_p50_ms"] = Quantile(handle_ms, 0.5);
  m["server.handle_p99_ms"] = Quantile(handle_ms, 0.99);
  m["server.exec_p50_ms"] = Quantile(exec_ms, 0.5);
  m["server.exec_p99_ms"] = Quantile(exec_ms, 0.99);
  m["server.nonexec_p50_ms"] = Quantile(nonexec_ms, 0.5);
  m["server.nonexec_p99_ms"] = Quantile(nonexec_ms, 0.99);
  m["wire.overhead_p50_ms"] =
      Quantile(tcp_latency, 0.5) - Quantile(handle_ms, 0.5);
  m["server.cache_hit_rate"] =
      hits + misses + invalid > 0 ? hits / (hits + misses + invalid) : 0.0;
  m["server.cache_misses"] = misses;
  m["server.model_evaluations"] =
      static_cast<double>(frontend->model_evaluations() - evals0);
  m["exec.admission_wait_p99_ms"] =
      admission != nullptr
          ? HistogramDeltaQuantile(*admission, admission_before, 0.99)
          : 0.0;

  // Handle time = exec + non-exec holds only if no request reports more
  // execution time than its Handle call took.
  const double residual = handle_sum > 0 ? negative / handle_sum : 0.0;
  m["residual_frac"] = residual;
  FinishTracedRun(options, spans, &m, result);
  return true;
}

}  // namespace uotbench

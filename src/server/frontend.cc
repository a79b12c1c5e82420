#include "server/frontend.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "exec/query_executor.h"
#include "tpch/tpch_queries.h"
#include "util/timer.h"

namespace uot {
namespace server {
namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses all of `s` as a number; false on a bad or partial parse.
template <typename T>
bool ParseWhole(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  const std::from_chars_result parsed = std::from_chars(s.data(), end, *out);
  return parsed.ec == std::errc() && parsed.ptr == end;
}

/// Splits the leading word off `*rest` (lower-cased; empty at end).
std::string TakeWord(std::string_view* rest) {
  *rest = Trim(*rest);
  size_t end = 0;
  while (end < rest->size() &&
         !std::isspace(static_cast<unsigned char>((*rest)[end]))) {
    ++end;
  }
  std::string word = Lower(std::string(rest->substr(0, end)));
  rest->remove_prefix(end);
  *rest = Trim(*rest);
  return word;
}

/// Statement templates the plan cache holds before it evicts.
constexpr size_t kPlanCacheCapacity = 128;

Response ErrorResponse(const Status& status) {
  Response resp;
  resp.ok = false;
  resp.error = status.message();
  return resp;
}

/// Per-edge cardinality estimates measured from an executed run: the
/// payload bytes each edge actually delivered, divided by the producer's
/// output row width. Unlike EstimatesFromExecutedPlan this reads the
/// always-collected EdgeStats, so it works with dropped (transient)
/// intermediate blocks — the server never re-executes just to estimate.
std::vector<EdgeEstimate> EstimatesFromRun(const QueryPlan& plan,
                                           const ExecutionStats& stats) {
  std::vector<EdgeEstimate> out;
  if (stats.edges.size() != plan.streaming_edges().size()) return out;
  for (const EdgeStats& edge : stats.edges) {
    const InsertDestination* dest = plan.destination_of(edge.producer);
    EdgeEstimate est;
    if (dest != nullptr) {
      est.row_bytes = dest->output()->schema().row_width();
      if (est.row_bytes > 0) {
        est.rows = static_cast<uint64_t>(
            static_cast<double>(edge.bytes_delivered) / est.row_bytes);
      }
    }
    out.push_back(est);
  }
  return out;
}

/// Per-slot bytes handed to ChooseRadixBits for ad-hoc joins: two key
/// words plus the payload row (the PartitionedJoinHashTable slot layout).
size_t SlotBytes(double payload_row_bytes) {
  return 16 + static_cast<size_t>(payload_row_bytes);
}

}  // namespace

FrontEnd::FrontEnd(FrontEndConfig config, const Catalog* catalog)
    : config_(std::move(config)),
      catalog_(catalog),
      compiler_(catalog, config_.plan),
      chooser_(config_.chooser),
      plan_cache_(kPlanCacheCapacity) {
  EngineConfig engine_config = config_.engine;
  engine_config.metrics = &metrics_;  // server.* and engine.* side by side
  engine_ = std::make_unique<Engine>(engine_config);
  requests_counter_ = metrics_.GetCounter("server.requests");
  errors_counter_ = metrics_.GetCounter("server.errors");
  rows_counter_ = metrics_.GetCounter("server.rows_returned");
  cache_hits_counter_ = metrics_.GetCounter("server.plan_cache.hits");
  cache_misses_counter_ = metrics_.GetCounter("server.plan_cache.misses");
  cache_invalidations_counter_ =
      metrics_.GetCounter("server.plan_cache.invalidations");
  model_evaluations_counter_ = metrics_.GetCounter("server.model.evaluations");
  request_latency_hist_ = metrics_.GetHistogram("server.request_latency_ns");
}

FrontEnd::~FrontEnd() { Shutdown(); }

void FrontEnd::Shutdown() { engine_->Shutdown(); }

Response FrontEnd::Handle(const Request& request) {
  const int64_t start_ns = NowNanos();
  requests_counter_->Increment();

  Response resp;
  std::string_view rest = request.text;
  const std::string verb = TakeWord(&rest);
  if (verb == "select") {
    SelectStatement stmt;
    const Status status = ParseSelect(request.text, &stmt);
    resp = status.ok() ? ExecuteSelect(stmt, {}, request.tenant,
                                       request.pipeline_mode)
                       : ErrorResponse(status);
  } else if (verb == "prepare") {
    const std::string name = TakeWord(&rest);
    const std::string as = TakeWord(&rest);
    if (name.empty() || as != "as") {
      resp = ErrorResponse(
          Status::InvalidArgument("usage: PREPARE <name> AS SELECT ..."));
    } else {
      SelectStatement stmt;
      const Status status = ParseSelect(rest, &stmt);
      if (status.ok()) {
        std::lock_guard<std::mutex> lock(prepared_mutex_);
        prepared_[name] = std::move(stmt);
        resp.ok = true;
        resp.message = "prepared " + name;
      } else {
        resp = ErrorResponse(status);
      }
    }
  } else if (verb == "execute") {
    const std::string name = TakeWord(&rest);
    std::string_view args = Trim(rest);
    if (!args.empty() && args.front() == '(' && args.back() == ')') {
      args = Trim(args.substr(1, args.size() - 2));
    }
    SelectStatement stmt;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(prepared_mutex_);
      const auto it = prepared_.find(name);
      if (it != prepared_.end()) {
        stmt = it->second;
        found = true;
      }
    }
    std::vector<SqlValue> params;
    Status status = found ? ParseValueList(args, &params)
                          : Status::NotFound("no prepared statement '" +
                                             name + "'");
    if (status.ok() && static_cast<int>(params.size()) != stmt.num_params) {
      status = Status::InvalidArgument(
          "statement expects " + std::to_string(stmt.num_params) +
          " parameter(s), got " + std::to_string(params.size()));
    }
    resp = status.ok() ? ExecuteSelect(stmt, params, request.tenant,
                                       request.pipeline_mode)
                       : ErrorResponse(status);
  } else if (verb == "tpch") {
    const std::string num = TakeWord(&rest);
    // The whole word must be a number in range: "3abc" and values past
    // INT_MAX are errors, not query 3.
    int query = 0;
    const bool valid = ParseWhole(num, &query);
    if (catalog_->tpch() == nullptr) {
      resp = ErrorResponse(
          Status::FailedPrecondition("no TPC-H data registered"));
    } else if (!valid || !IsTpchQuerySupported(query)) {
      resp = ErrorResponse(
          Status::InvalidArgument("unsupported TPC-H query '" + num + "'"));
    } else {
      resp = ExecuteTpch(query, request.tenant, request.pipeline_mode);
    }
  } else if (verb == "set") {
    const std::string what = TakeWord(&rest);
    if (what == "tenant") {
      const std::string name = TakeWord(&rest);
      if (name.empty()) {
        resp = ErrorResponse(
            Status::InvalidArgument("usage: SET TENANT <name>"));
      } else if (!engine_->HasAdmissionClass(name)) {
        resp = ErrorResponse(Status::NotFound("unknown tenant '" + name +
                                              "'"));
      } else {
        resp.ok = true;
        resp.message = "tenant " + name;
        resp.set_tenant = name;
      }
    } else if (what == "pipeline_mode") {
      // Accept "SET PIPELINE_MODE fused" and "SET PIPELINE_MODE = fused".
      std::string value = TakeWord(&rest);
      if (value == "=") {
        value = TakeWord(&rest);
      } else if (!value.empty() && value.front() == '=') {
        value = value.substr(1);
      }
      if (value == "fused" || value == "vectorized") {
        resp.ok = true;
        resp.message = "pipeline_mode " + value;
        resp.set_pipeline_mode = value;
      } else {
        resp = ErrorResponse(Status::InvalidArgument(
            "usage: SET PIPELINE_MODE <fused|vectorized>"));
      }
    } else {
      resp = ErrorResponse(Status::InvalidArgument(
          "usage: SET TENANT <name> | SET PIPELINE_MODE "
          "<fused|vectorized>"));
    }
  } else if (verb == "stats") {
    resp = Stats();
  } else {
    resp = ErrorResponse(Status::InvalidArgument(
        "unknown statement '" + verb +
        "' (expected SELECT/PREPARE/EXECUTE/TPCH/SET/STATS)"));
  }

  request_latency_hist_->Record(NowNanos() - start_ns);
  if (!resp.ok) errors_counter_->Increment();
  return resp;
}

template <typename CompileFn>
Response FrontEnd::ExecuteWithCache(const std::string& key,
                                    const std::vector<std::string>& tables,
                                    bool has_join, CompileFn&& compile,
                                    const SelectStatement* stmt,
                                    const std::string& tenant,
                                    PipelineMode mode) {
  const std::string fingerprint =
      catalog_->CardinalityFingerprint(tables) + KnobFingerprint(mode);

  PlanCacheEntry entry;
  const PlanCache::Outcome outcome =
      plan_cache_.Lookup(key, fingerprint, &entry);
  bool hit = outcome == PlanCache::Outcome::kHit;
  switch (outcome) {
    case PlanCache::Outcome::kHit: cache_hits_counter_->Increment(); break;
    case PlanCache::Outcome::kMiss: cache_misses_counter_->Increment(); break;
    case PlanCache::Outcome::kInvalidated:
      cache_invalidations_counter_->Increment();
      break;
  }

  // Radix bits shape the plan (exchange edges), so they are decided before
  // compilation: the cached verdict on a hit, a fresh ChooseRadixBits
  // model evaluation on a missed ad-hoc join.
  int radix_bits = config_.plan.join_radix_bits;
  if (hit) {
    radix_bits = entry.radix_bits;
  } else if (has_join && stmt != nullptr) {
    EdgeEstimate build_est, probe_est;
    const Status status = compiler_.JoinEstimates(*stmt, &build_est,
                                                  &probe_est);
    if (!status.ok()) return ErrorResponse(status);
    radix_bits = chooser_
                     .ChooseRadixBits(build_est, probe_est,
                                      SlotBytes(build_est.row_bytes),
                                      config_.plan.load_factor)
                     .radix_bits;
    model_evaluations_counter_->Increment();
  }

  std::unique_ptr<QueryPlan> plan;
  const Status compile_status = compile(radix_bits, &plan);
  if (!compile_status.ok()) return ErrorResponse(compile_status);

  if (hit) {
    if (entry.choices.size() == plan->streaming_edges().size()) {
      // The whole point of the cache: per-edge UoT choices pinned as plan
      // annotations, no model evaluation.
      CostModelUotChooser::AnnotatePlan(plan.get(), entry.choices);
    } else {
      hit = false;  // stale shape (should not happen; fingerprint guards)
    }
  }

  ExecConfig exec;
  exec.pipeline_mode = mode;
  ExecutionStats stats;
  const Status exec_status =
      engine_->ExecuteOrReject(plan.get(), exec, &stats, tenant);
  if (!exec_status.ok()) return ErrorResponse(exec_status);

  if (!hit) {
    const std::vector<EdgeEstimate> estimates = EstimatesFromRun(*plan,
                                                                 stats);
    if (estimates.size() == plan->streaming_edges().size()) {
      entry.fingerprint = fingerprint;
      entry.radix_bits = radix_bits;
      entry.choices = chooser_.ChoosePlan(*plan, estimates);
      model_evaluations_counter_->Increment();
      plan_cache_.Insert(key, entry);
    }
  }

  Response resp;
  resp.ok = true;
  resp.rows_csv = CanonicalRows(*plan->result_table());
  resp.row_count = plan->result_table()->NumRows();
  resp.cache = hit ? Response::Cache::kHit : Response::Cache::kMiss;
  resp.exec_ms = stats.QueryMillis();
  resp.query_id = stats.query_id;
  rows_counter_->Add(resp.row_count);
  return resp;
}

Response FrontEnd::ExecuteSelect(const SelectStatement& stmt,
                                 const std::vector<SqlValue>& params,
                                 const std::string& tenant,
                                 PipelineMode mode) {
  return ExecuteWithCache(
      stmt.TemplateKey(), stmt.Tables(), stmt.has_join,
      [this, &stmt, &params](int radix_bits,
                             std::unique_ptr<QueryPlan>* plan) {
        return compiler_.Compile(stmt, params, radix_bits, plan);
      },
      &stmt, tenant, mode);
}

Response FrontEnd::ExecuteTpch(int query, const std::string& tenant,
                               PipelineMode mode) {
  const TpchDatabase* db = catalog_->tpch();
  return ExecuteWithCache(
      "tpch:" + std::to_string(query),
      {"lineitem", "orders", "customer", "part", "supplier", "partsupp",
       "nation", "region"},
      /*has_join=*/false,
      [this, db, query](int radix_bits, std::unique_ptr<QueryPlan>* plan) {
        TpchPlanConfig plan_config = config_.plan;
        plan_config.join_radix_bits = radix_bits;
        *plan = BuildTpchPlan(query, *db, plan_config);
        return Status::OK();
      },
      /*stmt=*/nullptr, tenant, mode);
}

Response FrontEnd::Stats() const {
  const auto counter = [this](const char* name) -> uint64_t {
    const obs::Counter* c = metrics_.FindCounter(name);
    return c != nullptr ? c->Value() : 0;
  };
  Response resp;
  resp.ok = true;
  resp.message =
      "requests=" + std::to_string(counter("server.requests")) +
      " errors=" + std::to_string(counter("server.errors")) +
      " cache_hits=" + std::to_string(counter("server.plan_cache.hits")) +
      " cache_misses=" + std::to_string(counter("server.plan_cache.misses")) +
      " cache_invalidations=" +
      std::to_string(counter("server.plan_cache.invalidations")) +
      " cache_size=" + std::to_string(plan_cache_.size()) +
      " model_evaluations=" +
      std::to_string(counter("server.model.evaluations")) +
      " queries_executed=" + std::to_string(engine_->queries_executed()) +
      " active_queries=" + std::to_string(engine_->active_queries());
  return resp;
}

std::string FrontEnd::KnobFingerprint(PipelineMode pipeline_mode) const {
  return "|pmode=" + std::to_string(static_cast<int>(pipeline_mode)) +
         ";block=" + std::to_string(config_.plan.block_bytes) +
         ";radix=" + std::to_string(config_.plan.join_radix_bits) +
         ";lip=" + std::to_string(config_.plan.use_lip ? 1 : 0) +
         ";budget=" + std::to_string(config_.engine.memory_budget_bytes) +
         ";chooser_budget=" +
         std::to_string(config_.chooser.memory_budget_bytes) +
         ";threads=" + std::to_string(config_.chooser.threads);
}

Status ParseTenantSpec(std::string_view spec,
                       std::vector<AdmissionClass>* classes) {
  const size_t c1 = spec.find(':');
  const size_t c2 = c1 == std::string_view::npos ? c1 : spec.find(':', c1 + 1);
  AdmissionClass cls;
  bool ok = c2 != std::string_view::npos;
  if (ok) {
    cls.name = std::string(spec.substr(0, c1));
    ok = !cls.name.empty() &&
         ParseWhole(spec.substr(c1 + 1, c2 - c1 - 1), &cls.max_inflight) &&
         ParseWhole(spec.substr(c2 + 1), &cls.memory_share) &&
         cls.max_inflight >= 0 && cls.memory_share > 0.0 &&
         cls.memory_share <= 1.0;
  }
  for (const AdmissionClass& existing : *classes) {
    ok = ok && existing.name != cls.name;
  }
  if (!ok) {
    return Status::InvalidArgument(
        "bad --tenant spec '" + std::string(spec) +
        "' (want a new name:max_inflight:share, max_inflight >= 0, "
        "0 < share <= 1)");
  }
  classes->push_back(std::move(cls));
  return Status::OK();
}

}  // namespace server
}  // namespace uot

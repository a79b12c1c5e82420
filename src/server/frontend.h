#ifndef UOT_SERVER_FRONTEND_H_
#define UOT_SERVER_FRONTEND_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "exec/engine.h"
#include "model/uot_chooser.h"
#include "obs/metrics.h"
#include "server/catalog.h"
#include "server/plan_cache.h"
#include "server/plan_compiler.h"
#include "server/sql_parser.h"

namespace uot {
namespace server {

struct FrontEndConfig {
  /// The engine behind the front end; its admission_classes are the
  /// tenants a connection may SET.
  EngineConfig engine;
  /// Plan-construction knobs for compiled statements and TPCH plans.
  PlanBuilderConfig plan;
  /// Cost-model options behind the plan+annotation cache.
  CostModelUotChooser::Options chooser;
};

struct Request {
  std::string text;
  /// The engine admission class every query of this request runs under.
  std::string tenant = "default";
  /// Connection-level pipeline execution mode (SET PIPELINE_MODE), applied
  /// to every query this request executes.
  PipelineMode pipeline_mode = PipelineMode::kVectorized;
};

struct Response {
  bool ok = false;
  std::string error;
  /// OK summary for row-less statements (PREPARE, SET TENANT, STATS).
  std::string message;
  /// Result rows as canonical sorted CSV (one line per row).
  std::string rows_csv;
  uint64_t row_count = 0;
  enum class Cache { kNone, kHit, kMiss } cache = Cache::kNone;
  double exec_ms = 0.0;
  uint64_t query_id = 0;
  /// Set by SET TENANT so the connection layer can update its state.
  std::string set_tenant;
  /// Set by SET PIPELINE_MODE ("fused" / "vectorized"); empty = unchanged.
  std::string set_pipeline_mode;
};

/// The query front end (ROADMAP item 1): parses requests, compiles them to
/// QueryPlans, reuses cached CostModelUotChooser decisions per query
/// template, and executes on the shared Engine under the request's tenant
/// (an engine admission class). Handle() is safe to call from many connection threads.
///
/// Statements:
///   SELECT ... / PREPARE <name> AS SELECT ... / EXECUTE <name> [args]
///   TPCH <n>          run the built-in TPC-H plan (catalog needs TPC-H)
///   SET TENANT <x>    switch the connection's admission class
///   SET PIPELINE_MODE <fused|vectorized>
///                     switch the connection's pipeline execution mode
///   STATS             server counters (cache, model, engine)
class FrontEnd {
 public:
  FrontEnd(FrontEndConfig config, const Catalog* catalog);
  ~FrontEnd();
  UOT_DISALLOW_COPY_AND_ASSIGN(FrontEnd);

  Response Handle(const Request& request);

  /// Shuts the engine down: queries waiting in admission and future
  /// requests are rejected.
  void Shutdown();

  Engine* engine() { return engine_.get(); }
  obs::MetricsRegistry* metrics() { return &metrics_; }
  PlanCache* plan_cache() { return &plan_cache_; }
  /// Cost-model evaluations performed (ChoosePlan + ChooseRadixBits
  /// calls). Flat across repeat queries of one template — the cache's
  /// whole point; tests and STATS read it to verify.
  uint64_t model_evaluations() const {
    return model_evaluations_counter_->Value();
  }

  /// The knob component of the cache fingerprint (block size, radix
  /// config, LIP, budgets, chooser threads, pipeline mode). Every knob
  /// that shapes the plan or its annotations must be in here — an
  /// unfingerprinted knob silently serves stale plans after the knob
  /// changes. Public so tests can assert that knob changes produce
  /// distinct fingerprints and therefore invalidate cached plans.
  std::string KnobFingerprint(
      PipelineMode pipeline_mode = PipelineMode::kVectorized) const;

 private:
  Response ExecuteSelect(const SelectStatement& stmt,
                         const std::vector<SqlValue>& params,
                         const std::string& tenant, PipelineMode mode);
  Response ExecuteTpch(int query, const std::string& tenant,
                       PipelineMode mode);
  /// The cached-annotation execution path shared by SELECT and TPCH:
  /// look up `key`, compile via `compile(radix_bits)`, annotate on hit,
  /// execute under `tenant`'s class in pipeline mode `mode`, choose+insert
  /// on miss.
  template <typename CompileFn>
  Response ExecuteWithCache(const std::string& key,
                            const std::vector<std::string>& tables,
                            bool has_join, CompileFn&& compile,
                            const SelectStatement* stmt,
                            const std::string& tenant, PipelineMode mode);
  Response Stats() const;

  const FrontEndConfig config_;
  const Catalog* const catalog_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<Engine> engine_;
  PlanCompiler compiler_;
  CostModelUotChooser chooser_;
  PlanCache plan_cache_;

  std::mutex prepared_mutex_;
  std::map<std::string, SelectStatement> prepared_;

  obs::Counter* requests_counter_;
  obs::Counter* errors_counter_;
  obs::Counter* rows_counter_;
  obs::Counter* cache_hits_counter_;
  obs::Counter* cache_misses_counter_;
  obs::Counter* cache_invalidations_counter_;
  obs::Counter* model_evaluations_counter_;
  obs::Histogram* request_latency_hist_;
};

/// Parses a `uot_server --tenant` spec `name:max_inflight:memory_share`
/// and appends the class to `*classes`. Every field must be consumed
/// whole; requires a non-empty name not already in `*classes`,
/// max_inflight >= 0 and 0 < memory_share <= 1.
Status ParseTenantSpec(std::string_view spec,
                       std::vector<AdmissionClass>* classes);

}  // namespace server
}  // namespace uot

#endif  // UOT_SERVER_FRONTEND_H_

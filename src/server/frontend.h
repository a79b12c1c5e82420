#ifndef UOT_SERVER_FRONTEND_H_
#define UOT_SERVER_FRONTEND_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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

/// One admission class: how much of the engine a tenant may occupy.
/// Layered in front of the engine's own admission control — the class gate
/// bounds a tenant's concurrent queries and scales the per-query memory
/// budget, the engine's FIFO gate then arbitrates across tenants.
struct TenantClass {
  std::string name;
  /// Concurrent queries of this class (0 = unlimited within the class;
  /// the engine-wide max_inflight_queries still applies). Excess requests
  /// wait at the class gate.
  int max_inflight = 0;
  /// Fraction of EngineConfig::memory_budget_bytes a query of this class
  /// receives as its per-query ExecConfig budget (ignored when the engine
  /// is unbudgeted).
  double memory_share = 1.0;
};

struct FrontEndConfig {
  EngineConfig engine;
  /// Plan-construction knobs for compiled statements and TPCH plans.
  PlanBuilderConfig plan;
  /// Cost-model options behind the plan+annotation cache.
  CostModelUotChooser::Options chooser;
  /// Join kernel knobs applied to every query.
  JoinKernelConfig join;
  /// Admission classes; a "default" class (unlimited, full share) is added
  /// when absent.
  std::vector<TenantClass> tenants;
  size_t plan_cache_capacity = 128;
  /// Upper bound handed to ChooseRadixBits for ad-hoc joins.
  int max_radix_bits = 6;
};

struct Request {
  std::string text;
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
/// template, gates tenants through admission classes, and executes on the
/// shared Engine. Handle() is safe to call from many connection threads.
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

  /// Rejects in-flight and future requests, then stops the engine.
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

  /// The knob component of the cache fingerprint (join batching, block size,
  /// radix config, budgets, pipeline mode). Every knob that shapes the
  /// plan or its annotations must be in here — an unfingerprinted knob
  /// silently serves stale plans after the knob changes. Public so tests
  /// can assert that knob changes produce distinct fingerprints and
  /// therefore invalidate cached plans.
  std::string KnobFingerprint(
      PipelineMode pipeline_mode = PipelineMode::kVectorized) const;

 private:
  struct TenantState {
    TenantClass cls;
    int inflight = 0;
  };

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

  Status AcquireTenant(const std::string& tenant, TenantState** state);
  void ReleaseTenant(TenantState* state);

  const FrontEndConfig config_;
  const Catalog* const catalog_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<Engine> engine_;
  PlanCompiler compiler_;
  CostModelUotChooser chooser_;
  PlanCache plan_cache_;

  std::mutex prepared_mutex_;
  std::map<std::string, SelectStatement> prepared_;

  std::mutex tenant_mutex_;
  std::condition_variable tenant_cv_;
  std::map<std::string, TenantState> tenants_;
  bool shutdown_ = false;  // guarded by tenant_mutex_

  obs::Counter* requests_counter_;
  obs::Counter* errors_counter_;
  obs::Counter* rows_counter_;
  obs::Counter* cache_hits_counter_;
  obs::Counter* cache_misses_counter_;
  obs::Counter* cache_invalidations_counter_;
  obs::Counter* model_evaluations_counter_;
  obs::Histogram* request_latency_hist_;
};

}  // namespace server
}  // namespace uot

#endif  // UOT_SERVER_FRONTEND_H_

#ifndef UOT_EXEC_ENGINE_H_
#define UOT_EXEC_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/metrics_sampler.h"
#include "plan/query_plan.h"
#include "scheduler/query_session.h"
#include "util/status.h"

namespace uot {

/// One admission class (a server tenant): how much of the engine the
/// queries naming it may occupy. Classes are limits inside the engine's one
/// admission line, not separate queues.
struct AdmissionClass {
  std::string name;
  /// Concurrent queries of this class (0 = unlimited within the class; the
  /// engine-wide max_inflight_queries still applies). A query whose class
  /// is full waits in the line without holding back other classes.
  int max_inflight = 0;
  /// Fraction of EngineConfig::memory_budget_bytes a query of this class
  /// receives as its per-query ExecConfig budget (ignored when the engine
  /// is unbudgeted).
  double memory_share = 1.0;
};

/// Engine-wide configuration: the shared resources behind all concurrently
/// executing queries.
struct EngineConfig {
  /// Size of the persistent worker pool shared by every session.
  int num_workers = 4;
  /// Admission control: maximum queries executing at once (0 = unlimited).
  /// Excess Execute() calls block until a slot frees up.
  int max_inflight_queries = 0;
  /// Admission control: shared soft memory budget in bytes across all
  /// active sessions' storage managers (0 = unlimited). A query is held at
  /// admission while the tracked total exceeds the budget — except that
  /// one query is always admitted so the system progresses. This is
  /// engine-level admission; the per-work-order budget policy inside a
  /// query is ExecConfig::memory_budget_bytes.
  int64_t memory_budget_bytes = 0;
  /// Admission classes a query may name in ExecuteOrReject. A "default"
  /// class (unlimited, full share) is added when absent.
  std::vector<AdmissionClass> admission_classes = {};
  /// Engine-level telemetry registry. When set, the engine records its
  /// service metrics (engine.* gauges, counters, and latency histograms)
  /// into this shared registry; when null it owns a private one, readable
  /// via metrics(). This registry is process-level only: per-query figures
  /// live in each query's ExecutionStats and, when traced, its trace.
  obs::MetricsRegistry* metrics = nullptr;
  /// Time-series sampling interval for the engine registry; 0 disables
  /// the background sampler. When enabled, a MetricsSampler snapshots
  /// every counter/gauge at this interval into a bounded ring buffer
  /// (readable via sampler()), refreshing the on-demand engine gauges
  /// (in-flight queries, work-queue depth, budget headroom) right before
  /// each snapshot.
  int64_t sampler_interval_ms = 0;
  /// Ring-buffer capacity of the sampler, in samples.
  size_t sampler_capacity = 600;
};

/// A long-lived query execution service (the architectural move of
/// "To pipeline or not to pipeline" and Theseus: the executor as a
/// resource-managed service, not a per-query thread bundle).
///
/// The engine owns one persistent pool of `num_workers` threads and a
/// shared work-order queue. Each Execute() call runs one QuerySession: the
/// calling thread drives the session's coordinator loop while pool workers
/// execute work orders tagged with their owning session and account them
/// there, waking that session's coordinator only when a decision is due. Any number of threads may
/// call Execute() concurrently — admission control (max in-flight queries,
/// a shared memory budget and per-class limits) decides when each query
/// starts.
///
/// Observability stays per-query: each Execute() returns that query's
/// ExecutionStats, and a session given its own TraceSession via ExecConfig
/// records its work-order spans there no matter which pool worker ran them.
///
/// Per-session memory peaks (ExecutionStats::peak_bytes) are read from the
/// plan's storage-manager tracker and are only meaningful when concurrent
/// sessions do not share a StorageManager.
class Engine final : public WorkOrderSink {
 public:
  explicit Engine(EngineConfig config);
  /// Waits for active queries to finish, then stops the pool.
  ~Engine() override;
  UOT_DISALLOW_COPY_AND_ASSIGN(Engine);

  /// Executes `plan` to completion and returns its statistics. Blocks in
  /// admission control first when the engine is saturated; safe to call
  /// from many threads concurrently. The per-query scheduling knobs of
  /// `config` (UoT policy, budget, caps, obs sinks) apply as in a
  /// standalone run; `config.num_workers` is ignored — the engine's pool
  /// executes the work orders.
  ///
  /// Admission is FIFO: queries are considered strictly in arrival order,
  /// so a stream of small queries cannot starve a large-budget one that
  /// arrived before them. CHECK-fails if the engine shuts down while the
  /// query waits in admission (or was already shut down); long-lived
  /// callers that race Execute() against Shutdown() — e.g. a server front
  /// end draining connections — should use ExecuteOrReject() instead.
  ExecutionStats Execute(QueryPlan* plan, const ExecConfig& config);

  /// Like Execute(), but reports shutdown as a recoverable error instead
  /// of CHECK-failing: returns FailedPrecondition when the engine is shut
  /// down (or shuts down while the query waits in admission), leaving
  /// `*stats` untouched. On OK, `*stats` holds the execution statistics.
  ///
  /// A non-empty `admission_class` names one of
  /// EngineConfig::admission_classes (NotFound otherwise, before the query
  /// joins the line). The query then also waits for a free slot of its
  /// class, and on a budgeted engine runs with the class's memory share
  /// as its ExecConfig::memory_budget_bytes. Among waiters whose class has
  /// a free slot, admission stays strictly in arrival order.
  Status ExecuteOrReject(QueryPlan* plan, const ExecConfig& config,
                         ExecutionStats* stats,
                         std::string_view admission_class = {});

  /// Wakes queries blocked in admission (they are rejected, never admitted
  /// into the closing pool), waits until no query is active and every
  /// admission waiter has drained, then closes the shared queue and joins
  /// the pool. Idempotent; Execute() must not be called afterwards.
  void Shutdown();

  int num_workers() const { return config_.num_workers; }
  /// Whether `name` is one of this engine's admission classes.
  bool HasAdmissionClass(std::string_view name) const {
    return classes_.find(name) != classes_.end();
  }
  /// Queries currently admitted and executing.
  int active_queries() const;
  /// Queries currently blocked in admission control (in the wait line,
  /// not yet admitted or rejected).
  int admission_waiters() const;
  /// Total queries that have completed on this engine.
  uint64_t queries_executed() const {
    return queries_executed_.load(std::memory_order_relaxed);
  }

  /// The engine telemetry registry: EngineConfig::metrics when provided,
  /// otherwise the engine-owned one. Holds the engine.queries_executed /
  /// engine.admission_rejections counters, engine.inflight_queries /
  /// engine.admission_waiters / engine.work_queue_depth /
  /// engine.budget_headroom_bytes gauges (refreshed on demand and before
  /// every sample), and the engine.query_latency_ns /
  /// engine.admission_wait_ns histograms.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  /// The background time-series sampler; nullptr unless
  /// EngineConfig::sampler_interval_ms > 0. Stopped (with a final sample)
  /// by Shutdown.
  obs::MetricsSampler* sampler() const { return sampler_.get(); }
  /// Refreshes the on-demand engine gauges (in-flight queries, work-queue
  /// depth, budget headroom) right now; the sampler calls this before
  /// every snapshot, and callers without a sampler may poll it directly.
  void RefreshGauges();

  // WorkOrderSink — called by sessions (coordinator threads).
  bool SubmitWork(QuerySession* session, std::unique_ptr<WorkOrder> wo,
                  bool high_priority) override;
  size_t WorkQueueDepth() const override;

 private:
  /// A work order tagged with its owning session.
  struct WorkItem {
    QuerySession* session;
    std::unique_ptr<WorkOrder> work_order;
  };

  /// An admission class and its admitted queries.
  struct ClassState {
    AdmissionClass cls;
    int active = 0;  // guarded by admission_mutex_
  };
  /// A query parked in the admission line.
  struct Waiter {
    ClassState* cls;  // nullptr when the query names no class
    const StorageManager* storage;
  };

  void WorkerLoop(int worker_id);
  /// Whether `self` is admitted now: it is the oldest waiter whose class
  /// has a free slot and the engine-wide predicate holds for it.
  /// `admission_mutex_` must be held.
  bool IsAdmissibleLocked(std::list<Waiter>::const_iterator self) const;
  /// Engine-wide admission predicate; `admission_mutex_` must be held.
  bool CanAdmitLocked(const StorageManager* storage) const;
  /// Tracked bytes across active sessions' storage managers, counting
  /// shared managers once; `admission_mutex_` must be held.
  int64_t TrackedBytesLocked() const;

  const EngineConfig config_;
  ThreadSafeQueue<WorkItem> work_queue_;
  std::vector<std::thread> workers_;

  mutable std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  int active_ = 0;                // guarded by admission_mutex_
  bool shutdown_ = false;         // guarded by admission_mutex_
  // Admission classes by name; the map is fixed after construction, only
  // ClassState::active changes.
  std::map<std::string, ClassState, std::less<>> classes_;
  // The admission line in arrival order. A waiter leaves it when admitted
  // or rejected at shutdown. Guarded by admission_mutex_.
  std::list<Waiter> waiters_;
  // Storage managers of active sessions (one entry per session; duplicates
  // possible when sessions share storage). Guarded by admission_mutex_.
  std::vector<const StorageManager*> active_storages_;

  std::atomic<uint64_t> next_query_id_{1};
  std::atomic<uint64_t> queries_executed_{0};

  // Telemetry. Resolved once in the constructor; the per-completion
  // handles are lock-free after that.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;  // == owned or config's
  obs::Counter* queries_executed_counter_ = nullptr;
  obs::Counter* admission_rejections_counter_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Gauge* admission_waiters_gauge_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* budget_headroom_gauge_ = nullptr;  // only when budgeted
  obs::Histogram* query_latency_hist_ = nullptr;
  obs::Histogram* admission_wait_hist_ = nullptr;
  std::unique_ptr<obs::MetricsSampler> sampler_;
};

}  // namespace uot

#endif  // UOT_EXEC_ENGINE_H_

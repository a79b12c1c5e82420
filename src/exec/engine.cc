#include "exec/engine.h"

#include <algorithm>

#include "util/timer.h"

namespace uot {

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  UOT_CHECK(config_.num_workers >= 1);
  for (const AdmissionClass& cls : config_.admission_classes) {
    UOT_CHECK(!cls.name.empty());
    UOT_CHECK(classes_.emplace(cls.name, ClassState{cls}).second);
  }
  classes_.emplace("default", ClassState{AdmissionClass{"default", 0, 1.0}});
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  queries_executed_counter_ = metrics_->GetCounter("engine.queries_executed");
  admission_rejections_counter_ =
      metrics_->GetCounter("engine.admission_rejections");
  inflight_gauge_ = metrics_->GetGauge("engine.inflight_queries");
  admission_waiters_gauge_ = metrics_->GetGauge("engine.admission_waiters");
  queue_depth_gauge_ = metrics_->GetGauge("engine.work_queue_depth");
  if (config_.memory_budget_bytes > 0) {
    budget_headroom_gauge_ = metrics_->GetGauge("engine.budget_headroom_bytes");
    budget_headroom_gauge_->Set(config_.memory_budget_bytes);
  }
  query_latency_hist_ = metrics_->GetHistogram("engine.query_latency_ns");
  admission_wait_hist_ = metrics_->GetHistogram("engine.admission_wait_ns");
  if (config_.sampler_interval_ms > 0) {
    obs::MetricsSampler::Options sampler_options;
    sampler_options.interval_ms = config_.sampler_interval_ms;
    sampler_options.capacity = std::max<size_t>(1, config_.sampler_capacity);
    sampler_options.pre_sample = [this] { RefreshGauges(); };
    sampler_ =
        std::make_unique<obs::MetricsSampler>(metrics_, sampler_options);
  }
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int w = 0; w < config_.num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  if (sampler_ != nullptr) sampler_->Start();
}

Engine::~Engine() { Shutdown(); }

void Engine::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(admission_mutex_);
    shutdown_ = true;
    // Queries already admitted run to completion. Queries blocked in the
    // admission wait are woken and rejected (their predicate is
    // shutdown-aware) — they must never be admitted into a pool that is
    // about to close. Wait for both populations to drain: active sessions
    // and the admission line (each rejected waiter leaves it).
    admission_cv_.notify_all();
    admission_cv_.wait(lock, [this] {
      return active_ == 0 && waiters_.empty();
    });
  }
  work_queue_.Close();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // After the pool is quiet, so the final sample is the true end state.
  if (sampler_ != nullptr) sampler_->Stop();
}

bool Engine::IsAdmissibleLocked(
    std::list<Waiter>::const_iterator self) const {
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    const ClassState* cls = it->cls;
    if (cls == nullptr || cls->cls.max_inflight <= 0 ||
        cls->active < cls->cls.max_inflight) {
      return it == self && CanAdmitLocked(self->storage);
    }
  }
  return false;
}

bool Engine::CanAdmitLocked(const StorageManager* storage) const {
  if (active_ == 0) return true;  // progress guarantee
  if (config_.max_inflight_queries > 0 &&
      active_ >= config_.max_inflight_queries) {
    return false;
  }
  if (config_.memory_budget_bytes > 0) {
    // The candidate's storage counts unless an active session shares it.
    int64_t total = TrackedBytesLocked();
    if (std::find(active_storages_.begin(), active_storages_.end(),
                  storage) == active_storages_.end()) {
      total += storage->tracker().TotalCurrent();
    }
    if (total > config_.memory_budget_bytes) return false;
  }
  return true;
}

int64_t Engine::TrackedBytesLocked() const {
  int64_t total = 0;
  std::vector<const StorageManager*> seen;
  for (const StorageManager* s : active_storages_) {
    if (std::find(seen.begin(), seen.end(), s) != seen.end()) continue;
    seen.push_back(s);
    total += s->tracker().TotalCurrent();
  }
  return total;
}

void Engine::RefreshGauges() {
  queue_depth_gauge_->Set(static_cast<int64_t>(WorkQueueDepth()));
  std::lock_guard<std::mutex> lock(admission_mutex_);
  inflight_gauge_->Set(active_);
  admission_waiters_gauge_->Set(static_cast<int64_t>(waiters_.size()));
  if (budget_headroom_gauge_ != nullptr) {
    budget_headroom_gauge_->Set(config_.memory_budget_bytes -
                                TrackedBytesLocked());
  }
}

ExecutionStats Engine::Execute(QueryPlan* plan, const ExecConfig& config) {
  ExecutionStats stats;
  const Status status = ExecuteOrReject(plan, config, &stats);
  UOT_CHECK(status.ok());  // Execute() racing/after Shutdown() is a caller
                           // bug; use ExecuteOrReject() to handle it.
  return stats;
}

Status Engine::ExecuteOrReject(QueryPlan* plan, const ExecConfig& config,
                               ExecutionStats* stats,
                               std::string_view admission_class) {
  UOT_CHECK(plan != nullptr);
  UOT_CHECK(stats != nullptr);
  const StorageManager* storage = plan->storage();
  ClassState* cls = nullptr;
  if (!admission_class.empty()) {
    const auto it = classes_.find(admission_class);
    if (it == classes_.end()) {
      return Status::NotFound("unknown admission class '" +
                              std::string(admission_class) + "'");
    }
    cls = &it->second;
  }
  const int64_t admission_start_ns = NowNanos();
  {
    std::unique_lock<std::mutex> lock(admission_mutex_);
    if (shutdown_) {
      admission_rejections_counter_->Increment();
      return Status::FailedPrecondition(
          "Engine::Execute called after Shutdown()");
    }
    // FIFO admission: join the line and wait until no earlier waiter whose
    // class has a free slot is still waiting AND the headroom predicate
    // holds. Strict ordering makes admission starvation-free — a stream of
    // small queries can no longer overtake a large-budget query that
    // arrived first every time the engine briefly has headroom. The wait
    // predicate is shutdown-aware: Shutdown() wakes waiters, which are
    // rejected here instead of being admitted into a closed worker pool.
    const auto self = waiters_.insert(waiters_.end(), Waiter{cls, storage});
    admission_cv_.wait(lock,
                       [&] { return shutdown_ || IsAdmissibleLocked(self); });
    waiters_.erase(self);
    // Wake the line either way: the next waiter may be admissible right
    // away (e.g. under max_inflight > 1 with headroom to spare), and
    // Shutdown() waits for the line to empty.
    admission_cv_.notify_all();
    if (shutdown_) {
      admission_rejections_counter_->Increment();
      return Status::FailedPrecondition(
          "engine shut down while the query waited in admission");
    }
    ++active_;
    if (cls != nullptr) ++cls->active;
    active_storages_.push_back(storage);
  }
  const int64_t admitted_ns = NowNanos();

  ExecConfig session_config = config;
  if (cls != nullptr && config_.memory_budget_bytes > 0) {
    session_config.memory_budget_bytes = static_cast<int64_t>(
        static_cast<double>(config_.memory_budget_bytes) *
        cls->cls.memory_share);
  }
  QuerySession session(plan, std::move(session_config), this,
                       config_.num_workers,
                       next_query_id_.fetch_add(1,
                                                std::memory_order_relaxed));
  *stats = session.Run();
  stats->admission_wait_ns = admitted_ns - admission_start_ns;

  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    --active_;
    if (cls != nullptr) --cls->active;
    active_storages_.erase(std::find(active_storages_.begin(),
                                     active_storages_.end(), storage));
  }
  queries_executed_.fetch_add(1, std::memory_order_relaxed);
  queries_executed_counter_->Increment();
  query_latency_hist_->Record(stats->query_end_ns - stats->query_start_ns);
  admission_wait_hist_->Record(stats->admission_wait_ns);
  admission_cv_.notify_all();
  return Status::OK();
}

int Engine::active_queries() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return active_;
}

int Engine::admission_waiters() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return static_cast<int>(waiters_.size());
}

bool Engine::SubmitWork(QuerySession* session, std::unique_ptr<WorkOrder> wo,
                        bool high_priority) {
  WorkItem item{session, std::move(wo)};
  return high_priority ? work_queue_.PushFront(std::move(item))
                       : work_queue_.Push(std::move(item));
}

size_t Engine::WorkQueueDepth() const { return work_queue_.Size(); }

void Engine::WorkerLoop(int worker_id) {
  while (true) {
    std::optional<WorkItem> item = work_queue_.Pop();
    if (!item.has_value()) return;
    // A worker that just handed its coordinator an event lets it run
    // before taking more work: on an oversubscribed machine a busy worker
    // can otherwise starve the coordinator, which then transfers blocks
    // and releases transients late.
    if (item->session->ExecuteWorkOrder(std::move(item->work_order),
                                        worker_id)) {
      std::this_thread::yield();
    }
  }
}

}  // namespace uot

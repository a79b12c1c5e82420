#include "scheduler/query_session.h"

#include <algorithm>
#include <thread>

#include "fused/pipeline_fuser.h"
#include "obs/trace_session.h"
#include "operators/exchange_operator.h"
#include "util/timer.h"

namespace uot {

namespace {

// Whether the calling thread posted an event during the current work
// order. Completed blocks are posted from inside Execute(), by the
// destinations' callbacks, so a flag per thread is what ties them to the
// work order.
thread_local bool t_posted_event = false;

}  // namespace

QuerySession::QuerySession(QueryPlan* plan, ExecConfig config,
                           WorkOrderSink* sink, int pool_workers,
                           uint64_t query_id)
    : plan_(plan),
      config_(std::move(config)),
      sink_(sink),
      pool_workers_(pool_workers),
      query_id_(query_id) {
  UOT_CHECK(plan_ != nullptr);
  UOT_CHECK(sink_ != nullptr);
  UOT_CHECK(pool_workers_ >= 1);
}

void QuerySession::InitObservability() {
  trace_ = config_.trace;
  const int n = plan_->num_operators();
  if (trace_ != nullptr) {
    std::vector<std::string> names;
    names.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) names.push_back(plan_->op(i)->name());
    trace_->SetOperatorNames(std::move(names));
    trace_->SetThreadName(0, "coordinator");
    for (int w = 0; w < pool_workers_; ++w) {
      trace_->SetThreadName(static_cast<uint32_t>(1 + w),
                            "worker " + std::to_string(w));
    }
  }
  join_counts_.assign(static_cast<size_t>(pool_workers_) *
                          static_cast<size_t>(n),
                      JoinKernelCounts{});
  op_ctx_ = OperatorExecContext{};
  op_ctx_.join = config_.join;
  op_ctx_.num_workers = pool_workers_;
  op_ctx_.trace = trace_;
  op_ctx_.join_counts = join_counts_.data();
  op_ctx_.num_operators = n;
}

void QuerySession::TraceQueueDepths() {
  trace_->EmitCounter(obs::TraceEventType::kQueueDepth, 0,
                      static_cast<int64_t>(sink_->WorkQueueDepth()));
  trace_->EmitCounter(obs::TraceEventType::kQueueDepth, 1,
                      static_cast<int64_t>(event_queue_.Size()));
}

ExecutionStats QuerySession::Run() {
  const int n = plan_->num_operators();
  op_states_.clear();
  op_states_.resize(static_cast<size_t>(n));
  edge_states_.clear();
  edge_states_.resize(plan_->streaming_edges().size());
  deferred_.clear();
  deferred_waiting_.store(0);
  outstanding_ = std::make_unique<Outstanding[]>(static_cast<size_t>(n));
  worker_slots_ =
      std::make_unique<WorkerSlot[]>(static_cast<size_t>(pool_workers_));
  stats_ = ExecutionStats{};
  stats_.query_id = query_id_;
  stats_.config_summary = config_.ToString();
  stats_.operators.resize(static_cast<size_t>(n));
  // Every non-fused edge records its seed decision; adaptations append.
  stats_.uot_decisions.reserve(plan_->streaming_edges().size());

  // Resolve the UoT policy chain: plan annotations pin individual edges;
  // otherwise the config's policy decides; otherwise the scalar session
  // default, wrapped so the consultation path is always the interface.
  default_policy_ = std::make_unique<FixedUotPolicy>(config_.uot);
  uot_policy_ = config_.uot_policy != nullptr ? config_.uot_policy.get()
                                              : default_policy_.get();
  // The structural floor policies measure pressure against: whatever is
  // already tracked (base tables, concurrent queries) when we start.
  baseline_tracked_bytes_ = plan_->storage()->tracker().TotalCurrent();
  edge_pin_.clear();
  for (size_t e = 0; e < plan_->streaming_edges().size(); ++e) {
    const QueryPlan::StreamingEdge& edge = plan_->streaming_edges()[e];
    edge_pin_.push_back(edge.uot_blocks);
    // Cache each edge's payload row width so transfer-volume accounting
    // is a multiply, not a schema lookup, per block.
    const InsertDestination* dest = plan_->destination_of(edge.producer);
    edge_states_[e].row_width =
        dest != nullptr ? dest->output()->schema().row_width() : 0;
    EdgeStats& measured = stats_.edges.emplace_back();
    measured.producer = edge.producer;
    measured.consumer = edge.consumer;
    measured.exchange = edge.kind == QueryPlan::EdgeKind::kExchange;
  }
  for (int i = 0; i < n; ++i) {
    stats_.operators[static_cast<size_t>(i)].name = plan_->op(i)->name();
  }

  SetupFusedChains();

  for (const QueryPlan::BlockingEdge& e : plan_->blocking_edges()) {
    ++op_states_[static_cast<size_t>(e.consumer)].blocking_deps;
    // A fused chain's work orders touch every member (probing each probe
    // stage's hash table), so a member's blocking producer gates the head
    // too.
    const int head = FusedHeadOf(e.consumer);
    if (head >= 0) ++op_states_[static_cast<size_t>(head)].blocking_deps;
  }
  // Operators fed by a streaming edge are pipeline consumers: their work
  // orders overtake queued leaf work so transferred data is consumed while
  // hot (the eager-execution half of the paper's pipelining definition,
  // Section II; cf. the interleaved schedules of Fig. 2).
  for (const QueryPlan::StreamingEdge& e : plan_->streaming_edges()) {
    op_states_[static_cast<size_t>(e.consumer)].is_consumer = true;
  }

  // A consumer may drop an input block after use iff the block's producer
  // has no other consumer. Tracked per (consumer, producer): an operator
  // with several streaming inputs (e.g. sort-merge join) lists every
  // droppable producer table, not just the last edge scanned.
  droppable_sources_.assign(static_cast<size_t>(n), {});
  if (config_.drop_consumed_blocks) {
    for (const QueryPlan::StreamingEdge& e : plan_->streaming_edges()) {
      int consumers_of_producer = 0;
      for (const QueryPlan::StreamingEdge& other :
           plan_->streaming_edges()) {
        if (other.producer == e.producer) ++consumers_of_producer;
      }
      InsertDestination* dest = plan_->destination_of(e.producer);
      if (consumers_of_producer == 1 && dest != nullptr) {
        droppable_sources_[static_cast<size_t>(e.consumer)].push_back(
            dest->output());
      }
    }
  }

  // Completed producer blocks surface as kBlockReady events. An exchange
  // operator has one destination per partition, all writing one output
  // table — the callback goes on every destination so every partition's
  // blocks flow through the same edge accounting.
  for (int i = 0; i < n; ++i) {
    for (InsertDestination* dest : plan_->destinations_of(i)) {
      dest->set_on_block_ready([this, i](Block* block) {
        t_posted_event = true;
        event_queue_.Push(Event{Event::Kind::kBlockReady, i, block});
      });
    }
  }

  InitObservability();
  for (int i = 0; i < n; ++i) plan_->op(i)->BindExecContext(op_ctx_);

  plan_->storage()->tracker().ResetPeaks();
  stats_.query_start_ns = NowNanos();

  // Record each edge's starting UoT so the trace shows the full
  // trajectory (adaptive policies may move it on later consultations).
  // Fused interior edges never consult the policy — no blocks ever cross
  // them; their track value is the -1 sentinel (0 already means
  // whole-table) so the timeline shows "fused", not a stale UoT.
  for (size_t e = 0; e < plan_->streaming_edges().size(); ++e) {
    if (stats_.edges[e].fused) {
      if (trace_ != nullptr) {
        trace_->EmitCounter(obs::TraceEventType::kUotEffective,
                            static_cast<int>(e), -1);
      }
      continue;
    }
    ResolveEdgeUot(static_cast<int>(e));
  }

  for (int i = 0; i < n; ++i) TryGenerate(i);
  ReleaseDeferred();
  // Coordinator busy time: this first generation pass plus the handling
  // of every event, never the waits in Pop().
  stats_.coordinator_busy_ns = NowNanos() - stats_.query_start_ns;

  while (!AllFinished()) {
    std::optional<Event> event = event_queue_.Pop();
    UOT_CHECK(event.has_value());  // queue is never closed mid-run
    const int64_t handle_start_ns = NowNanos();
    ++stats_.coordinator_events;
    if (trace_ != nullptr) TraceQueueDepths();
    switch (event->kind) {
      case Event::Kind::kBlockReady:
        HandleBlockReady(event->op, event->block);
        break;
      case Event::Kind::kWorkOrderDone:
        ++stats_.completion_events;
        CheckOperatorDone(event->op);
        break;
      case Event::Kind::kOperatorFlushed:
        HandleOperatorFlushed(event->op);
        break;
    }
    // Any event may have deferred work (generation) or made room for it
    // (a completion), so the release check follows every one.
    ReleaseDeferred();
    stats_.coordinator_busy_ns += NowNanos() - handle_start_ns;
  }

  CollectWorkerRecords();
  stats_.query_end_ns = NowNanos();

  if (trace_ != nullptr) {
    trace_->EmitComplete(obs::TraceEventType::kQuery, /*tid=*/0,
                         stats_.query_start_ns, stats_.query_end_ns,
                         /*arg0=*/static_cast<int32_t>(query_id_),
                         /*arg1=*/-1,
                         static_cast<int64_t>(stats_.records.size()));
  }

  const MemoryTracker& tracker = plan_->storage()->tracker();
  for (int c = 0; c < kNumMemoryCategories; ++c) {
    stats_.peak_bytes[c] = tracker.Peak(static_cast<MemoryCategory>(c));
  }
  stats_.fused_chains.clear();
  for (const auto& chain : fused_chains_) {
    FusedChainStats cs;
    cs.ops = chain->ops();
    cs.work_orders = chain->work_orders();
    for (const fused::FusedChain::StageStats& st : chain->Stats()) {
      FusedStageStats stage;
      stage.op = st.op_index;
      stage.name = st.name;
      stage.kind = fused::FusedChain::StageKindName(st.kind);
      stage.rows_in = st.rows_in;
      stage.rows_out = st.rows_out;
      cs.stages.push_back(std::move(stage));
    }
    stats_.fused_chains.push_back(std::move(cs));
  }
  stats_.exchanges.clear();
  for (int i = 0; i < n; ++i) {
    const auto* exchange = dynamic_cast<const ExchangeOperator*>(plan_->op(i));
    if (exchange == nullptr) continue;
    ExchangeStats xs;
    xs.op = i;
    xs.name = exchange->name();
    xs.radix_bits = exchange->radix_bits();
    for (uint32_t p = 0; p < exchange->num_partitions(); ++p) {
      xs.partition_rows.push_back(exchange->partition_rows(p));
      xs.partition_blocks.push_back(exchange->partition_blocks(p));
    }
    stats_.exchanges.push_back(std::move(xs));
  }
  return std::move(stats_);
}

bool QuerySession::ExecuteWorkOrder(std::unique_ptr<WorkOrder> work_order,
                                    int worker_id) {
  UOT_DCHECK(worker_id >= 0 && worker_id < pool_workers_);
  t_posted_event = false;
  WorkOrderRecord record;
  record.op = work_order->operator_index;
  record.worker = worker_id;
  record.dispatch_ns = work_order->dispatch_ns;
  work_order->worker_id = worker_id;
  record.start_ns = NowNanos();
  work_order->Execute();
  record.end_ns = NowNanos();
  if (trace_ != nullptr) {
    trace_->EmitComplete(obs::TraceEventType::kWorkOrder,
                         static_cast<uint32_t>(1 + worker_id),
                         record.start_ns, record.end_ns, record.op,
                         worker_id);
  }
  // Transient intermediate blocks are dropped once consumed. Each block is
  // resolved against the consumer's droppable producer tables in turn
  // (ReleaseBlock is a no-op returning false on the wrong table); both
  // calls lock, so workers drop concurrently.
  const std::vector<Table*>& sources =
      droppable_sources_[static_cast<size_t>(record.op)];
  for (Block* consumed : work_order->consumed_blocks) {
    for (Table* source : sources) {
      if (source->ReleaseBlock(consumed)) {
        plan_->storage()->DropBlock(consumed);
        break;
      }
    }
  }
  // The plan may be destroyed as soon as the query ends, so the work
  // order goes before the decrement below can end it.
  work_order.reset();
  WorkerSlot& slot = worker_slots_[worker_id];
  slot.records.push_back(record);
  // The wake rule. The decrement comes before the deferred-work check;
  // the coordinator publishes deferred work before it re-checks Running(),
  // so one of the two sees the other.
  const bool drained =
      outstanding_[static_cast<size_t>(record.op)].count.fetch_sub(1) == 1;
  if (drained || deferred_waiting_.load() > 0) {
    t_posted_event = true;
    event_queue_.Push(Event{Event::Kind::kWorkOrderDone, record.op, nullptr});
  }
  // Last touch of the session: Run() may return once every work order is
  // retired.
  slot.retired.store(slot.records.size(), std::memory_order_release);
  return t_posted_event;
}

void QuerySession::CollectWorkerRecords() {
  uint64_t generated = 0;
  for (const OpState& s : op_states_) generated += s.generated;
  // Every operator has drained, but the workers that ran the last work
  // orders may still be between their decrement and their retire store:
  // a bounded tail, so spinning beats a sleep/wake round trip.
  const size_t workers = static_cast<size_t>(pool_workers_);
  while (true) {
    uint64_t retired = 0;
    for (size_t w = 0; w < workers; ++w) {
      retired += worker_slots_[w].retired.load(std::memory_order_acquire);
    }
    if (retired == generated) break;
    std::this_thread::yield();
  }
  stats_.records.reserve(generated);
  for (size_t w = 0; w < workers; ++w) {
    const std::vector<WorkOrderRecord>& records = worker_slots_[w].records;
    stats_.records.insert(stats_.records.end(), records.begin(),
                          records.end());
  }
  std::sort(stats_.records.begin(), stats_.records.end(),
            [](const WorkOrderRecord& a, const WorkOrderRecord& b) {
              return a.end_ns < b.end_ns;
            });
  for (const WorkOrderRecord& r : stats_.records) {
    OperatorStats& os = stats_.operators[static_cast<size_t>(r.op)];
    ++os.num_work_orders;
    os.total_task_ns += r.duration_ns();
    if (os.first_start_ns == 0 || r.start_ns < os.first_start_ns) {
      os.first_start_ns = r.start_ns;
    }
    os.last_end_ns = std::max(os.last_end_ns, r.end_ns);
  }
  const size_t n = stats_.operators.size();
  for (size_t i = 0; i < join_counts_.size(); ++i) {
    OperatorStats& os = stats_.operators[i % n];
    os.join_batches += join_counts_[i].batches;
    os.join_prefetches += join_counts_[i].prefetches;
  }
}

void QuerySession::SetupFusedChains() {
  const int n = plan_->num_operators();
  fused_chains_.clear();
  fused_chain_of_op_.assign(static_cast<size_t>(n), -1);
  if (config_.pipeline_mode != PipelineMode::kFused) return;
  std::vector<std::vector<int>> chains;
  if (!plan_->fused_pipelines().empty()) {
    for (const std::vector<int>& ops : plan_->fused_pipelines()) {
      if (fused::PipelineFuser::IsFusableChain(*plan_, ops)) {
        chains.push_back(ops);
      }
    }
  } else {
    chains = fused::PipelineFuser::DetectFusablePipelines(*plan_);
  }
  for (std::vector<int>& ops : chains) {
    bool overlaps = false;
    for (const int op : ops) {
      if (fused_chain_of_op_[static_cast<size_t>(op)] >= 0) overlaps = true;
    }
    if (overlaps) continue;  // first annotation wins; the rest vectorize
    const int chain_index = static_cast<int>(fused_chains_.size());
    for (const int op : ops) {
      fused_chain_of_op_[static_cast<size_t>(op)] = chain_index;
    }
    for (size_t i = 0; i + 1 < ops.size(); ++i) {
      const int edge = plan_->FindStreamingEdge(ops[i], ops[i + 1]);
      UOT_CHECK(edge >= 0);  // IsFusableChain verified every link
      stats_.edges[static_cast<size_t>(edge)].fused = true;
    }
    fused_chains_.push_back(
        std::make_unique<fused::FusedChain>(plan_, std::move(ops)));
  }
}

fused::FusedChain* QuerySession::FusedChainHeadedBy(int op) {
  const int chain = fused_chain_of_op_[static_cast<size_t>(op)];
  if (chain < 0) return nullptr;
  fused::FusedChain* c = fused_chains_[static_cast<size_t>(chain)].get();
  return c->head_op() == op ? c : nullptr;
}

int QuerySession::FusedHeadOf(int op) const {
  const int chain = fused_chain_of_op_[static_cast<size_t>(op)];
  if (chain < 0) return -1;
  const int head = fused_chains_[static_cast<size_t>(chain)]->head_op();
  return head == op ? -1 : head;
}

void QuerySession::TryGenerate(int op) {
  OpState& state = op_states_[static_cast<size_t>(op)];
  if (state.finished || state.finishing || state.blocking_deps > 0) return;
  if (!state.done_generating) {
    std::vector<std::unique_ptr<WorkOrder>> out;
    // A fused chain head generates work orders spanning the whole chain;
    // the chain's other members never see input blocks (interior edges
    // transfer nothing), so their own GenerateWorkOrders yields no orders
    // and they finish through the normal empty-flush cascade.
    fused::FusedChain* chain = FusedChainHeadedBy(op);
    state.done_generating = chain != nullptr
                                ? chain->GenerateWorkOrders(&out)
                                : plan_->op(op)->GenerateWorkOrders(&out);
    // The whole batch counts as outstanding before any of it runs, so a
    // worker that finishes an early work order cannot drain the operator
    // while the rest of the batch is still being dispatched.
    state.generated += out.size();
    outstanding_[static_cast<size_t>(op)].count.fetch_add(out.size());
    undispatched_ = out.size();
    for (auto& wo : out) {
      wo->operator_index = op;
      Dispatch(op, std::move(wo));
      --undispatched_;
    }
  }
  CheckOperatorDone(op);
}

void QuerySession::Dispatch(int op, std::unique_ptr<WorkOrder> wo) {
  const OpState& state = op_states_[static_cast<size_t>(op)];
  // Memory-budget policy: *producer* work orders (leaf scans creating new
  // intermediates) go through admission control and are released paced
  // against the budget. Consumer work orders always run — they consume
  // and release transient blocks, which is what brings memory back under
  // the budget.
  if (config_.memory_budget_bytes > 0 && !state.is_consumer) {
    const bool over_budget =
        plan_->storage()->tracker().TotalCurrent() >
        config_.memory_budget_bytes;
    // Admit straight away when the budget would release it immediately
    // anyway (under budget, a pool slot free, nothing already queued —
    // FIFO order). Only a deferral forced by the budget itself is counted
    // and traced; pacing deferrals (admissions waiting for a pool slot)
    // are not budget events.
    if (over_budget || !deferred_.empty() ||
        Running() >= static_cast<uint64_t>(pool_workers_)) {
      if (over_budget) {
        const int64_t tracked = plan_->storage()->tracker().TotalCurrent();
        if (trace_ != nullptr) {
          trace_->EmitInstant(obs::TraceEventType::kBudgetDefer, /*tid=*/0,
                              op, -1, tracked);
        }
        ++stats_.budget_deferrals;
        stats_.budget_events.push_back(
            BudgetEventRecord{NowNanos(), op, /*release=*/false, tracked});
      }
      deferred_.push_back(DeferredWorkOrder{op, over_budget, std::move(wo)});
      deferred_waiting_.store(deferred_.size());
      return;
    }
  }
  // Consumers run at high priority.
  Submit(std::move(wo), state.is_consumer);
}

void QuerySession::Submit(std::unique_ptr<WorkOrder> wo, bool high_priority) {
  wo->dispatch_ns = NowNanos();
  // The pool outlives every active session.
  const bool accepted = sink_->SubmitWork(this, std::move(wo), high_priority);
  UOT_CHECK(accepted);
}

uint64_t QuerySession::Running() const {
  uint64_t outstanding = 0;
  for (size_t i = 0; i < op_states_.size(); ++i) {
    outstanding += outstanding_[i].count.load();
  }
  return outstanding - deferred_.size() - undispatched_;
}

void QuerySession::ReleaseDeferred() {
  while (!deferred_.empty()) {
    const bool over_budget =
        plan_->storage()->tracker().TotalCurrent() >
        config_.memory_budget_bytes;
    const uint64_t running = Running();
    // Over budget: only release if nothing is running (progress
    // guarantee). Under budget: admit producers only up to the pool
    // size, so allocations stay paced against completions. Each denied
    // release while deferred work waits is a stall — the duration-like
    // signal of budget pressure (deferral counts alone only record the
    // first admission refusal of each work order).
    if (over_budget && running > 0) {
      ++stats_.budget_stalls;
      return;
    }
    if (!over_budget && running >= static_cast<uint64_t>(pool_workers_)) {
      return;
    }
    DeferredWorkOrder deferred = std::move(deferred_.front());
    deferred_.pop_front();
    deferred_waiting_.store(deferred_.size());
    if (deferred.counted) {
      const int64_t tracked = plan_->storage()->tracker().TotalCurrent();
      if (trace_ != nullptr) {
        trace_->EmitInstant(obs::TraceEventType::kBudgetRelease, /*tid=*/0,
                            deferred.op, -1, tracked);
      }
      stats_.budget_events.push_back(BudgetEventRecord{
          NowNanos(), deferred.op, /*release=*/true, tracked});
    }
    // Producers queue behind consumers: never high priority.
    Submit(std::move(deferred.work_order), /*high_priority=*/false);
    if (over_budget) return;  // released the single progress work order
  }
}

void QuerySession::CheckOperatorDone(int op) {
  OpState& state = op_states_[static_cast<size_t>(op)];
  if (state.finished || state.finishing) return;
  if (!state.done_generating ||
      outstanding_[static_cast<size_t>(op)].count.load() != 0) {
    return;
  }
  // All work orders executed and no more coming: flush the operator. The
  // flush callbacks enqueue kBlockReady events; the marker event below is
  // processed after them (FIFO), so final UoT transfers see every block.
  state.finishing = true;
  const int64_t finish_start_ns = NowNanos();
  plan_->op(op)->Finish();
  stats_.operators[static_cast<size_t>(op)].finish_ns =
      NowNanos() - finish_start_ns;
  event_queue_.Push(Event{Event::Kind::kOperatorFlushed, op, nullptr});
}

uint64_t QuerySession::ResolveEdgeUot(int edge_index) {
  const size_t e = static_cast<size_t>(edge_index);
  const EdgeState& state = edge_states_[e];
  EdgeStats& measured = stats_.edges[e];
  // The edge's current UoT; final once the edge has flushed.
  uint64_t& effective_uot = measured.final_uot_blocks;
  uint64_t blocks;
  UotAdaptCause cause = UotAdaptCause::kNone;
  if (edge_pin_[e] != 0) {
    blocks = edge_pin_[e];
    cause = UotAdaptCause::kPinned;
  } else {
    const QueryPlan::StreamingEdge& edge = plan_->streaming_edges()[e];
    EdgeRuntimeState rt;
    rt.edge_index = edge_index;
    rt.producer = edge.producer;
    rt.consumer = edge.consumer;
    rt.query_id = query_id_;
    rt.is_exchange = edge.kind == QueryPlan::EdgeKind::kExchange;
    rt.buffered_blocks = state.buffer.size();
    rt.produced_blocks = measured.blocks_produced;
    rt.transfers = measured.transfers;
    const OpState& producer = op_states_[static_cast<size_t>(edge.producer)];
    rt.producer_finished = producer.finished || producer.finishing;
    rt.tracked_bytes = plan_->storage()->tracker().TotalCurrent();
    rt.memory_budget_bytes = config_.memory_budget_bytes;
    rt.baseline_tracked_bytes = baseline_tracked_bytes_;
    rt.deferred_work_orders = deferred_.size();
    rt.producer_work_orders_done = Completed(edge.producer);
    rt.consumer_work_orders_done = Completed(edge.consumer);
    blocks = uot_policy_->BlocksPerTransfer(rt, &cause);
  }
  UOT_CHECK(blocks != 0);  // a zero UoT is a policy bug, not a request
  if (blocks != effective_uot) {
    // First resolution of the edge is the seed value unless a pin or the
    // policy itself says otherwise.
    if (effective_uot == 0 && cause == UotAdaptCause::kNone) {
      cause = UotAdaptCause::kSeed;
    }
    // Counter-track value: blocks per transfer, with 0 standing in for
    // whole-table (0 is otherwise invalid, so the sentinel is unambiguous
    // and keeps the track plottable).
    const int64_t plotted =
        blocks == UotPolicy::kWholeTable ? 0
                                         : static_cast<int64_t>(blocks);
    if (trace_ != nullptr) {
      trace_->EmitCounter(obs::TraceEventType::kUotEffective, edge_index,
                          plotted);
    }
    if (effective_uot != 0) {  // a mid-query change: an adaptation
      ++stats_.uot_adaptations;
      if (trace_ != nullptr) {
        const int64_t previous =
            effective_uot == UotPolicy::kWholeTable
                ? 0
                : static_cast<int64_t>(effective_uot);
        trace_->EmitInstant(obs::TraceEventType::kUotAdapt, /*tid=*/0,
                            edge_index,
                            static_cast<int32_t>(std::min<int64_t>(
                                previous, INT32_MAX)),
                            plotted);
      }
    }
    // The adaptive-decision log: one instant per (re)resolution that
    // changed the edge, with the cause the policy reported.
    if (trace_ != nullptr) {
      trace_->EmitInstant(obs::TraceEventType::kUotDecision, /*tid=*/0,
                          edge_index, static_cast<int32_t>(cause), plotted);
    }
    stats_.uot_decisions.push_back(UotDecisionRecord{
        NowNanos(), edge_index, effective_uot, blocks, cause});
    effective_uot = blocks;
  }
  return blocks;
}

void QuerySession::HandleBlockReady(int op, Block* block) {
  const auto& edges = plan_->streaming_edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].producer != op) continue;
    EdgeState& edge = edge_states_[i];
    EdgeStats& measured = stats_.edges[i];
    edge.buffer.push_back(block);
    ++measured.blocks_produced;
    edge.buffered_bytes +=
        static_cast<uint64_t>(block->num_rows()) * edge.row_width;
    measured.max_buffered_bytes =
        std::max(measured.max_buffered_bytes, edge.buffered_bytes);
    measured.max_buffered_blocks =
        std::max<uint64_t>(measured.max_buffered_blocks, edge.buffer.size());
    const uint64_t blocks = ResolveEdgeUot(static_cast<int>(i));
    if (blocks != UotPolicy::kWholeTable && edge.buffer.size() >= blocks) {
      DeliverEdge(static_cast<int>(i), /*final_flush=*/false);
    }
  }
}

void QuerySession::DeliverEdge(int edge_index, bool final_flush) {
  const QueryPlan::StreamingEdge& edge =
      plan_->streaming_edges()[static_cast<size_t>(edge_index)];
  EdgeState& state = edge_states_[static_cast<size_t>(edge_index)];
  if (!state.buffer.empty()) {
    plan_->op(edge.consumer)
        ->ReceiveInputBlocks(edge.consumer_input, state.buffer);
    EdgeStats& measured = stats_.edges[static_cast<size_t>(edge_index)];
    ++measured.transfers;
    measured.blocks_delivered += state.buffer.size();
    measured.bytes_delivered += state.buffered_bytes;
    state.buffered_bytes = 0;
    if (trace_ != nullptr) {
      trace_->EmitInstant(obs::TraceEventType::kBlockTransfer, /*tid=*/0,
                          edge_index, -1,
                          static_cast<int64_t>(state.buffer.size()));
    }
    state.buffer.clear();
  }
  if (final_flush) {
    if (trace_ != nullptr) {
      trace_->EmitInstant(obs::TraceEventType::kEdgeFlush, /*tid=*/0,
                          edge_index);
    }
    plan_->op(edge.consumer)->InputDone(edge.consumer_input);
  }
  TryGenerate(edge.consumer);
}

void QuerySession::HandleOperatorFlushed(int op) {
  OpState& state = op_states_[static_cast<size_t>(op)];
  state.finished = true;
  state.finishing = false;
  if (trace_ != nullptr) {
    trace_->EmitInstant(obs::TraceEventType::kOperatorFinish, /*tid=*/0, op);
  }
  const auto& edges = plan_->streaming_edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].producer != op) continue;
    DeliverEdge(static_cast<int>(i), /*final_flush=*/true);
  }
  for (const QueryPlan::BlockingEdge& e : plan_->blocking_edges()) {
    if (e.producer != op) continue;
    OpState& consumer = op_states_[static_cast<size_t>(e.consumer)];
    --consumer.blocking_deps;
    if (consumer.blocking_deps == 0) TryGenerate(e.consumer);
    // Mirror the extra dependency a fused member's blocking producer put
    // on its chain head.
    const int head = FusedHeadOf(e.consumer);
    if (head >= 0) {
      OpState& head_state = op_states_[static_cast<size_t>(head)];
      --head_state.blocking_deps;
      if (head_state.blocking_deps == 0) TryGenerate(head);
    }
  }
}

bool QuerySession::AllFinished() const {
  for (const OpState& s : op_states_) {
    if (!s.finished) return false;
  }
  return true;
}

}  // namespace uot

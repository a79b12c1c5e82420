#include "obs/trace_session.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json_lite.h"
#include "scheduler/uot_policy.h"
#include "util/timer.h"

namespace uot {
namespace obs {

namespace {

std::atomic<uint64_t> g_next_session_id{1};

/// Counter-track names for TraceEventType::kMemoryBytes, indexed by
/// MemoryCategory (util/memory_tracker.h).
const char* MemoryCategoryTrackName(int32_t category) {
  switch (category) {
    case 0: return "memory.base_table";
    case 1: return "memory.temporary_table";
    case 2: return "memory.hash_table";
    case 3: return "memory.other";
    case 4: return "memory.aggregation";
    default: return "memory.unknown";
  }
}

}  // namespace

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kQuery: return "query";
    case TraceEventType::kWorkOrder: return "work_order";
    case TraceEventType::kBlockTransfer: return "block_transfer";
    case TraceEventType::kEdgeFlush: return "edge_flush";
    case TraceEventType::kBudgetDefer: return "budget_defer";
    case TraceEventType::kBudgetRelease: return "budget_release";
    case TraceEventType::kHashTableReserve: return "hash_table_reserve";
    case TraceEventType::kOperatorFinish: return "operator_finish";
    case TraceEventType::kQueueDepth: return "queue_depth";
    case TraceEventType::kMemoryBytes: return "memory_bytes";
    case TraceEventType::kJoinBatchStage: return "join_batch_stage";
    case TraceEventType::kUotEffective: return "uot_effective";
    case TraceEventType::kUotAdapt: return "uot_adapt";
    case TraceEventType::kUotDecision: return "uot_decision";
  }
  return "unknown";
}

const char* JoinBatchStageName(int32_t stage) {
  switch (static_cast<JoinBatchStage>(stage)) {
    case JoinBatchStage::kExtract: return "extract";
    case JoinBatchStage::kProbe: return "probe";
    case JoinBatchStage::kResidual: return "residual";
    case JoinBatchStage::kEmit: return "emit";
    case JoinBatchStage::kInsert: return "insert";
    case JoinBatchStage::kPartition: return "partition";
    case JoinBatchStage::kScatter: return "scatter";
  }
  return "unknown";
}

const char* TraceEventTypeCategory(TraceEventType type) {
  switch (type) {
    case TraceEventType::kQuery: return "exec";
    case TraceEventType::kWorkOrder: return "scheduler";
    case TraceEventType::kBlockTransfer:
    case TraceEventType::kEdgeFlush:
    case TraceEventType::kUotEffective:
    case TraceEventType::kUotAdapt:
    case TraceEventType::kUotDecision: return "transfer";
    case TraceEventType::kBudgetDefer:
    case TraceEventType::kBudgetRelease:
    case TraceEventType::kMemoryBytes: return "memory";
    case TraceEventType::kHashTableReserve:
    case TraceEventType::kJoinBatchStage: return "join";
    case TraceEventType::kOperatorFinish: return "scheduler";
    case TraceEventType::kQueueDepth: return "scheduler";
  }
  return "unknown";
}

/// A fixed-capacity run of events; chunks chain so appends never relocate.
struct TraceSession::Chunk {
  static constexpr size_t kChunkEvents = 2048;
  size_t count = 0;
  std::unique_ptr<Chunk> next;
  TraceEvent events[kChunkEvents];
};

/// One thread's event log. Only the owning thread appends; readers walk
/// the chunks after the writer has quiesced.
struct TraceSession::ThreadBuffer {
  std::unique_ptr<Chunk> head;
  Chunk* tail = nullptr;

  void Append(const TraceEvent& event) {
    if (tail == nullptr || tail->count == Chunk::kChunkEvents) {
      auto chunk = std::make_unique<Chunk>();
      Chunk* raw = chunk.get();
      if (tail == nullptr) {
        head = std::move(chunk);
      } else {
        tail->next = std::move(chunk);
      }
      tail = raw;
    }
    tail->events[tail->count++] = event;
  }

  size_t size() const {
    size_t n = 0;
    for (const Chunk* c = head.get(); c != nullptr; c = c->next.get()) {
      n += c->count;
    }
    return n;
  }
};

TraceSession::TraceSession()
    : session_id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)),
      origin_ns_(NowNanos()) {}

TraceSession::~TraceSession() = default;

TraceSession::ThreadBuffer* TraceSession::LocalBuffer() {
  // One-entry cache: the common case (a thread emitting repeatedly into the
  // same session) is a single comparison. Session ids are globally unique,
  // so a stale entry from a destroyed session can never match.
  struct Cache {
    uint64_t session_id = 0;
    ThreadBuffer* buffer = nullptr;
  };
  thread_local Cache cache;
  if (cache.session_id == session_id_) return cache.buffer;

  std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id tid = std::this_thread::get_id();
  ThreadBuffer*& slot = buffer_by_thread_[tid];
  if (slot == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    slot = owned.get();
    buffers_.push_back(std::move(owned));
  }
  cache = Cache{session_id_, slot};
  return slot;
}

void TraceSession::Emit(const TraceEvent& event) {
  LocalBuffer()->Append(event);
}

void TraceSession::EmitComplete(TraceEventType type, uint32_t tid,
                                int64_t start_ns, int64_t end_ns,
                                int32_t arg0, int32_t arg1, int64_t value) {
  TraceEvent e;
  e.type = type;
  e.phase = TracePhase::kComplete;
  e.ts_ns = start_ns;
  e.dur_ns = end_ns - start_ns;
  e.tid = tid;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.value = value;
  Emit(e);
}

void TraceSession::EmitInstant(TraceEventType type, uint32_t tid,
                               int32_t arg0, int32_t arg1, int64_t value) {
  TraceEvent e;
  e.type = type;
  e.phase = TracePhase::kInstant;
  e.ts_ns = NowNanos();
  e.tid = tid;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.value = value;
  Emit(e);
}

void TraceSession::EmitCounter(TraceEventType type, int32_t arg0,
                               int64_t value) {
  TraceEvent e;
  e.type = type;
  e.phase = TracePhase::kCounter;
  e.ts_ns = NowNanos();
  e.arg0 = arg0;
  e.value = value;
  Emit(e);
}

void TraceSession::SetOperatorNames(std::vector<std::string> names) {
  std::lock_guard<std::mutex> lock(mutex_);
  op_names_ = std::move(names);
}

void TraceSession::SetThreadName(uint32_t tid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  thread_names_[tid] = std::move(name);
}

size_t TraceSession::num_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->size();
  return n;
}

std::vector<TraceEvent> TraceSession::SortedEvents() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      for (const Chunk* c = buffer->head.get(); c != nullptr;
           c = c->next.get()) {
        events.insert(events.end(), c->events, c->events + c->count);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return events;
}

namespace {

void AppendKeyValue(std::string* out, const char* key, int64_t value,
                    bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRId64, *first ? "" : ",",
                key, value);
  *out += buf;
  *first = false;
}

}  // namespace

std::string TraceSession::ToChromeJson() const {
  const std::vector<TraceEvent> events = SortedEvents();
  std::vector<std::string> op_names;
  std::map<uint32_t, std::string> thread_names;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    op_names = op_names_;
    thread_names = thread_names_;
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // About 150 bytes per event; reserving avoids regrowing a large trace.
  out.reserve(out.size() + 160 * (events.size() + thread_names.size()));
  bool first_event = true;
  char buf[160];

  for (const auto& [tid, name] : thread_names) {
    if (!first_event) out += ",";
    out += "\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", tid);
    out += buf;
    out += ",\"args\":{\"name\":";
    AppendJsonString(&out, name);
    out += "}}";
    first_event = false;
  }

  for (const TraceEvent& e : events) {
    if (!first_event) out += ",";
    first_event = false;
    out += "\n{\"name\":";
    // Counter tracks get distinguishing names so Perfetto draws one track
    // per category/queue instead of merging them.
    if (e.type == TraceEventType::kMemoryBytes) {
      AppendJsonString(&out, MemoryCategoryTrackName(e.arg0));
    } else if (e.type == TraceEventType::kQueueDepth) {
      AppendJsonString(&out,
                       e.arg0 == 0 ? "queue.work_orders" : "queue.events");
    } else if (e.type == TraceEventType::kUotEffective) {
      // One counter track per edge ("uot.edge0.effective_blocks", ...) so
      // Perfetto plots each edge's UoT trajectory separately.
      AppendJsonString(&out, "uot.edge" + std::to_string(e.arg0) +
                                 ".effective_blocks");
    } else if (e.type == TraceEventType::kJoinBatchStage) {
      // Per-stage span names ("join.probe") so the trace viewer colors the
      // extract/probe/residual/emit/insert stages distinctly.
      AppendJsonString(&out,
                       std::string("join.") + JoinBatchStageName(e.arg1));
    } else {
      AppendJsonString(&out, TraceEventTypeName(e.type));
    }
    out += ",\"cat\":";
    AppendJsonString(&out, TraceEventTypeCategory(e.type));
    const double ts_us =
        static_cast<double>(e.ts_ns - origin_ns_) / 1000.0;
    switch (e.phase) {
      case TracePhase::kComplete:
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,"
                      "\"tid\":%u",
                      ts_us, static_cast<double>(e.dur_ns) / 1000.0, e.tid);
        break;
      case TracePhase::kInstant:
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":0,"
                      "\"tid\":%u",
                      ts_us, e.tid);
        break;
      case TracePhase::kCounter:
        std::snprintf(buf, sizeof(buf), ",\"ph\":\"C\",\"ts\":%.3f,\"pid\":0",
                      ts_us);
        break;
    }
    out += buf;
    out += ",\"args\":{";
    bool first_arg = true;
    switch (e.type) {
      case TraceEventType::kQuery:
        AppendKeyValue(&out, "work_orders", e.value, &first_arg);
        break;
      case TraceEventType::kWorkOrder:
        AppendKeyValue(&out, "op", e.arg0, &first_arg);
        if (e.arg0 >= 0 &&
            static_cast<size_t>(e.arg0) < op_names.size()) {
          out += ",\"op_name\":";
          AppendJsonString(&out, op_names[static_cast<size_t>(e.arg0)]);
        }
        AppendKeyValue(&out, "worker", e.arg1, &first_arg);
        break;
      case TraceEventType::kBlockTransfer:
        AppendKeyValue(&out, "edge", e.arg0, &first_arg);
        AppendKeyValue(&out, "blocks", e.value, &first_arg);
        break;
      case TraceEventType::kEdgeFlush:
        AppendKeyValue(&out, "edge", e.arg0, &first_arg);
        break;
      case TraceEventType::kBudgetDefer:
      case TraceEventType::kBudgetRelease:
        AppendKeyValue(&out, "op", e.arg0, &first_arg);
        AppendKeyValue(&out, "tracked_bytes", e.value, &first_arg);
        break;
      case TraceEventType::kHashTableReserve:
        out += "\"layout\":";
        AppendJsonString(&out, e.arg0 == 1 ? "dense" : "hash");
        first_arg = false;
        AppendKeyValue(&out, "slots", e.arg1, &first_arg);
        AppendKeyValue(&out, "bytes", e.value, &first_arg);
        break;
      case TraceEventType::kOperatorFinish:
        AppendKeyValue(&out, "op", e.arg0, &first_arg);
        if (e.arg0 >= 0 &&
            static_cast<size_t>(e.arg0) < op_names.size()) {
          out += ",\"op_name\":";
          AppendJsonString(&out, op_names[static_cast<size_t>(e.arg0)]);
        }
        break;
      case TraceEventType::kQueueDepth:
        AppendKeyValue(&out, "depth", e.value, &first_arg);
        break;
      case TraceEventType::kMemoryBytes:
        AppendKeyValue(&out, "bytes", e.value, &first_arg);
        break;
      case TraceEventType::kUotEffective:
        AppendKeyValue(&out, "blocks", e.value, &first_arg);
        break;
      case TraceEventType::kUotAdapt:
        AppendKeyValue(&out, "edge", e.arg0, &first_arg);
        AppendKeyValue(&out, "from_blocks", e.arg1, &first_arg);
        AppendKeyValue(&out, "to_blocks", e.value, &first_arg);
        break;
      case TraceEventType::kUotDecision:
        AppendKeyValue(&out, "edge", e.arg0, &first_arg);
        out += ",\"cause\":";
        AppendJsonString(&out,
                         UotAdaptCauseName(static_cast<UotAdaptCause>(e.arg1)));
        AppendKeyValue(&out, "blocks", e.value, &first_arg);
        break;
      case TraceEventType::kJoinBatchStage:
        AppendKeyValue(&out, "op", e.arg0, &first_arg);
        if (e.arg0 >= 0 &&
            static_cast<size_t>(e.arg0) < op_names.size()) {
          out += ",\"op_name\":";
          AppendJsonString(&out, op_names[static_cast<size_t>(e.arg0)]);
        }
        out += ",\"stage\":";
        AppendJsonString(&out, JoinBatchStageName(e.arg1));
        AppendKeyValue(&out, "rows", e.value, &first_arg);
        break;
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

Status TraceSession::WriteChromeJson(const std::string& path) const {
  return WriteWholeFile(path, ToChromeJson());
}

}  // namespace obs
}  // namespace uot

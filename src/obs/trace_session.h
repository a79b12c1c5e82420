#ifndef UOT_OBS_TRACE_SESSION_H_
#define UOT_OBS_TRACE_SESSION_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_event.h"
#include "util/macros.h"
#include "util/status.h"

namespace uot {
namespace obs {

/// A low-overhead, thread-safe trace recorder for one query execution (or
/// any other traced scope).
///
/// Writers append fixed-size TraceEvent records into per-thread chunked
/// buffers: after a thread's first event (which registers its buffer under
/// a mutex), appends are plain stores into thread-owned memory — no locks,
/// no atomics, no allocation except a new chunk every kChunkEvents events.
/// Tracing is opt-in per execution: untraced runs carry a null session
/// pointer and pay only a branch at each instrumentation site.
///
/// Export (ToChromeJson / WriteChromeJson) renders the merged,
/// time-sorted event stream as Chrome/Perfetto `trace_event` JSON — open
/// the file in https://ui.perfetto.dev or chrome://tracing. Export must
/// run after all writer threads have quiesced (the scheduler joins its
/// workers before returning, so tracing a query and exporting afterwards
/// is always safe).
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  UOT_DISALLOW_COPY_AND_ASSIGN(TraceSession);

  /// Appends a span with explicit start/end timestamps (from NowNanos).
  void EmitComplete(TraceEventType type, uint32_t tid, int64_t start_ns,
                    int64_t end_ns, int32_t arg0 = -1, int32_t arg1 = -1,
                    int64_t value = 0);

  /// Appends a point event stamped with the current time.
  void EmitInstant(TraceEventType type, uint32_t tid, int32_t arg0 = -1,
                   int32_t arg1 = -1, int64_t value = 0);

  /// Appends a counter sample stamped with the current time.
  void EmitCounter(TraceEventType type, int32_t arg0, int64_t value);

  /// Appends a fully specified event.
  void Emit(const TraceEvent& event);

  /// Installs operator names so exported work-order spans carry
  /// human-readable "op_name" args (indexed by TraceEvent::arg0).
  void SetOperatorNames(std::vector<std::string> names);

  /// Names a tid track in the exported trace (e.g. "worker 3").
  void SetThreadName(uint32_t tid, std::string name);

  /// Total events recorded. Quiesced-read: call after writers finished.
  size_t num_events() const;

  /// All events merged across threads and sorted by timestamp.
  std::vector<TraceEvent> SortedEvents() const;

  /// Serializes the session as Chrome trace_event JSON.
  std::string ToChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

  /// The session's time origin (NowNanos at construction); exported
  /// timestamps are relative to it.
  int64_t origin_ns() const { return origin_ns_; }

 private:
  struct Chunk;
  struct ThreadBuffer;

  ThreadBuffer* LocalBuffer();

  const uint64_t session_id_;  // globally unique, for thread-local caching
  const int64_t origin_ns_;
  mutable std::mutex mutex_;  // guards registration and name tables
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::map<std::thread::id, ThreadBuffer*> buffer_by_thread_;
  std::vector<std::string> op_names_;
  std::map<uint32_t, std::string> thread_names_;
};

}  // namespace obs
}  // namespace uot

#endif  // UOT_OBS_TRACE_SESSION_H_

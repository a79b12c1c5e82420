#ifndef UOT_OBS_METRICS_SAMPLER_H_
#define UOT_OBS_METRICS_SAMPLER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/macros.h"

namespace uot {
namespace obs {

/// One point of the engine time-series: a monotonic timestamp plus the
/// values of every counter and gauge registered at sampling time, in the
/// order MetricsRegistry::SampleValues returns them.
struct MetricsSample {
  int64_t t_ns = 0;
  std::vector<std::pair<std::string, int64_t>> values;
};

/// A background sampler that periodically snapshots a MetricsRegistry
/// into a bounded ring buffer, turning the registry's instantaneous
/// counters/gauges into a time-series an operator can plot. The ring
/// keeps the most recent `capacity` samples; older ones are overwritten
/// (total_samples() keeps counting so wraparound is observable).
///
/// The sampler thread touches only the registry's mutex-protected
/// iteration path — never the lock-free hot-path handles — so enabling it
/// adds no cost to query execution beyond the sampling interval itself.
class MetricsSampler {
 public:
  struct Options {
    /// Interval between samples. Clamped to >= 1 ms.
    int64_t interval_ms = 100;
    /// Ring-buffer capacity in samples (>= 1).
    size_t capacity = 600;
    /// Invoked (on the sampler thread) immediately before each snapshot;
    /// hosts use it to refresh gauges that are cheaper to compute on
    /// demand than to maintain on the hot path (queue depths, headroom).
    std::function<void()> pre_sample;
  };

  MetricsSampler(const MetricsRegistry* registry, Options options);
  ~MetricsSampler();
  UOT_DISALLOW_COPY_AND_ASSIGN(MetricsSampler);

  /// Starts the background thread. No-op when already running.
  void Start();
  /// Stops and joins the background thread, taking one final sample so
  /// short-lived runs always have an end-state point. No-op when not
  /// running.
  void Stop();
  bool running() const;

  /// Takes one sample synchronously on the caller's thread (also used by
  /// the background thread). Public so tests can drive wraparound without
  /// timing dependence.
  void SampleOnce();

  /// Samples recorded since construction, including overwritten ones.
  uint64_t total_samples() const;
  /// The retained samples, oldest first.
  std::vector<MetricsSample> Snapshot() const;

  /// {"interval_ms":..,"total_samples":..,"samples":[{"t_ns":..,
  ///  "values":{name:value,...}},...]} — parseable by JsonValue::Parse.
  std::string ToJson() const;

 private:
  void ThreadLoop();

  const MetricsRegistry* const registry_;
  const Options options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;

  // Ring buffer: `ring_[i]` valid for i < min(total_, capacity); the
  // oldest retained sample sits at `total_ % capacity` once wrapped.
  std::vector<MetricsSample> ring_;
  uint64_t total_ = 0;
};

}  // namespace obs
}  // namespace uot

#endif  // UOT_OBS_METRICS_SAMPLER_H_

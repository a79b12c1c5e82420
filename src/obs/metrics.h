#ifndef UOT_OBS_METRICS_H_
#define UOT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace uot {
namespace obs {

/// A monotonically increasing 64-bit counter. `Add` is lock-free and
/// wraps on unsigned overflow (documented, tested behavior — the engine
/// never legitimately reaches 2^64 of anything, but a wrap must not abort
/// a query).
class Counter {
 public:
  Counter() = default;
  UOT_DISALLOW_COPY_AND_ASSIGN(Counter);

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A settable instantaneous value that also tracks its high-water mark
/// (max of all Set/Add results and 0). Lock-free.
class Gauge {
 public:
  Gauge() = default;
  UOT_DISALLOW_COPY_AND_ASSIGN(Gauge);

  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    UpdateMax(v);
  }

  void Add(int64_t delta) {
    const int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateMax(now);
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }

 private:
  void UpdateMax(int64_t now) {
    int64_t peak = max_.load(std::memory_order_relaxed);
    while (now > peak && !max_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// A point-in-time digest of a histogram: totals plus the standard
/// latency quantiles, so callers report percentiles without re-deriving
/// them from raw buckets. `min`/`max` are 0 when the histogram is empty.
struct HistogramSnapshot {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  double mean = 0.0;
  int64_t p50 = 0;
  int64_t p95 = 0;
  int64_t p99 = 0;
};

/// A fixed-bucket histogram. Bucket `i` counts values `v` with
/// `v <= upper_bounds[i]` (and `v > upper_bounds[i-1]`); one implicit
/// overflow bucket catches everything above the last bound. Recording is
/// lock-free.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<int64_t> upper_bounds);
  UOT_DISALLOW_COPY_AND_ASSIGN(Histogram);

  void Record(int64_t v);

  /// Number of buckets including the overflow bucket.
  size_t num_buckets() const { return bounds_.size() + 1; }
  /// Inclusive upper bound of bucket `i`; INT64_MAX for the overflow
  /// bucket.
  int64_t bucket_upper_bound(size_t i) const;
  uint64_t bucket_count(size_t i) const;

  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t Min() const;  // INT64_MAX when empty
  int64_t Max() const;  // INT64_MIN when empty
  double Mean() const;

  /// The p-quantile with linear interpolation inside the containing
  /// bucket, clamped to the observed [Min, Max] so a wide overflow or
  /// first bucket cannot report a value no sample ever had. 0 when empty.
  int64_t ValueAtQuantile(double p) const;

  /// Consistent-enough digest (count/sum/min/max/mean/p50/p95/p99) under
  /// concurrent recording; exact once recording has quiesced.
  HistogramSnapshot TakeSnapshot() const;

  /// `count` bounds starting at `first`, each `factor` times the last
  /// (rounded up so bounds stay strictly increasing).
  static std::vector<int64_t> ExponentialBounds(int64_t first, double factor,
                                                int count);
  /// Default latency grid: 1 us doubling up to ~8.5 s (24 buckets + inf).
  static const std::vector<int64_t>& DefaultLatencyBoundsNs();

 private:
  const std::vector<int64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

/// A registry of named counters/gauges/histograms: the process-level
/// telemetry of an engine (`engine.*`) and a server (`server.*`).
/// Per-query figures live in ExecutionStats, not here.
///
/// `Get*` registers on first use and returns a stable pointer; callers on
/// hot paths resolve the pointer once and then operate lock-free. Names
/// are dot-separated, e.g. "engine.queries_executed".
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  UOT_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Registers with `upper_bounds` (or the default latency grid when
  /// empty). Bounds of an already registered histogram are not changed.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<int64_t> upper_bounds = {});

  /// nullptr when the metric does not exist.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// One `(name, value)` pair per counter and per gauge, each name
  /// prefixed with its kind ("counter." / "gauge.") so the two namespaces
  /// stay distinct. Stable alphabetical order within each kind — the
  /// time-series sampler relies on this to keep columns aligned across
  /// samples. Counter values are cast to int64 (a wrap past 2^63 shows up
  /// negative).
  std::vector<std::pair<std::string, int64_t>> SampleValues() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}}, each
  /// alphabetical; parseable by JsonValue::Parse.
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace uot

#endif  // UOT_OBS_METRICS_H_

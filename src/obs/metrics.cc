#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json_lite.h"

namespace uot {
namespace obs {

Histogram::Histogram(std::vector<int64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  UOT_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    UOT_CHECK(bounds_[i] > bounds_[i - 1]);
  }
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(num_buckets());
  for (size_t i = 0; i < num_buckets(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Record(int64_t v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  int64_t lo = min_.load(std::memory_order_relaxed);
  while (v < lo &&
         !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  int64_t hi = max_.load(std::memory_order_relaxed);
  while (v > hi &&
         !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
}

int64_t Histogram::bucket_upper_bound(size_t i) const {
  UOT_CHECK(i < num_buckets());
  return i < bounds_.size() ? bounds_[i] : INT64_MAX;
}

uint64_t Histogram::bucket_count(size_t i) const {
  UOT_CHECK(i < num_buckets());
  return counts_[i].load(std::memory_order_relaxed);
}

int64_t Histogram::Min() const { return min_.load(std::memory_order_relaxed); }
int64_t Histogram::Max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::Mean() const {
  const uint64_t n = TotalCount();
  if (n == 0) return 0.0;
  return static_cast<double>(Sum()) / static_cast<double>(n);
}

int64_t Histogram::ValueAtQuantile(double p) const {
  const uint64_t n = TotalCount();
  if (n == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  uint64_t rank = static_cast<uint64_t>(
      p * static_cast<double>(n) + 0.999999);  // ceil(p * n), 1-based
  if (rank == 0) rank = 1;
  const int64_t lo_observed = Min();
  const int64_t hi_observed = Max();
  uint64_t seen = 0;
  for (size_t i = 0; i < num_buckets(); ++i) {
    const uint64_t in_bucket = bucket_count(i);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      // Interpolate between the bucket's edges; the first bucket starts at
      // the observed minimum and the overflow bucket ends at the observed
      // maximum, since their nominal edges are unbounded.
      const double lower =
          i == 0 ? static_cast<double>(lo_observed)
                 : static_cast<double>(bounds_[i - 1]);
      const double upper = i < bounds_.size()
                               ? static_cast<double>(bounds_[i])
                               : static_cast<double>(hi_observed);
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(in_bucket);
      double v = lower + (upper - lower) * frac;
      if (v < static_cast<double>(lo_observed)) {
        v = static_cast<double>(lo_observed);
      }
      if (v > static_cast<double>(hi_observed)) {
        v = static_cast<double>(hi_observed);
      }
      return static_cast<int64_t>(v);
    }
    seen += in_bucket;
  }
  return hi_observed;
}

HistogramSnapshot Histogram::TakeSnapshot() const {
  HistogramSnapshot snap;
  snap.count = TotalCount();
  if (snap.count == 0) return snap;
  snap.sum = Sum();
  snap.min = Min();
  snap.max = Max();
  snap.mean = Mean();
  snap.p50 = ValueAtQuantile(0.50);
  snap.p95 = ValueAtQuantile(0.95);
  snap.p99 = ValueAtQuantile(0.99);
  return snap;
}

std::vector<int64_t> Histogram::ExponentialBounds(int64_t first,
                                                  double factor, int count) {
  UOT_CHECK(first > 0 && factor > 1.0 && count >= 1);
  std::vector<int64_t> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double bound = static_cast<double>(first);
  int64_t prev = 0;
  for (int i = 0; i < count; ++i) {
    int64_t b = static_cast<int64_t>(bound);
    if (b <= prev) b = prev + 1;
    bounds.push_back(b);
    prev = b;
    bound *= factor;
  }
  return bounds;
}

const std::vector<int64_t>& Histogram::DefaultLatencyBoundsNs() {
  static const std::vector<int64_t>* kBounds =
      new std::vector<int64_t>(ExponentialBounds(1000, 2.0, 24));
  return *kBounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<int64_t> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    if (upper_bounds.empty()) upper_bounds = Histogram::DefaultLatencyBoundsNs();
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::SampleValues()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back("counter." + name,
                     static_cast<int64_t>(counter->Value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back("gauge." + name, gauge->Value());
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n  \"counters\": {";
  char buf[64];
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    std::snprintf(buf, sizeof(buf), ": %" PRIu64, counter->Value());
    out += buf;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    std::snprintf(buf, sizeof(buf), ": {\"value\": %" PRId64
                  ", \"max\": %" PRId64 "}",
                  gauge->Value(), gauge->Max());
    out += buf;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(&out, name);
    std::snprintf(buf, sizeof(buf), ": {\"count\": %" PRIu64
                  ", \"sum\": %" PRId64 ", \"buckets\": [",
                  histogram->TotalCount(), histogram->Sum());
    out += buf;
    for (size_t i = 0; i < histogram->num_buckets(); ++i) {
      if (i > 0) out += ", ";
      const int64_t bound = histogram->bucket_upper_bound(i);
      if (bound == INT64_MAX) {
        std::snprintf(buf, sizeof(buf), "{\"le\": \"inf\", \"count\": %" PRIu64
                      "}", histogram->bucket_count(i));
      } else {
        std::snprintf(buf, sizeof(buf), "{\"le\": %" PRId64
                      ", \"count\": %" PRIu64 "}",
                      bound, histogram->bucket_count(i));
      }
      out += buf;
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace obs
}  // namespace uot

#include "obs/metrics_sampler.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/json_lite.h"
#include "util/timer.h"

namespace uot {
namespace obs {

MetricsSampler::MetricsSampler(const MetricsRegistry* registry,
                               Options options)
    : registry_(registry), options_(std::move(options)) {
  UOT_CHECK(registry_ != nullptr);
  UOT_CHECK(options_.capacity >= 1);
  ring_.resize(options_.capacity);
}

MetricsSampler::~MetricsSampler() { Stop(); }

void MetricsSampler::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread(&MetricsSampler::ThreadLoop, this);
}

void MetricsSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = false;
  }
  SampleOnce();
}

bool MetricsSampler::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

void MetricsSampler::SampleOnce() {
  if (options_.pre_sample) options_.pre_sample();
  MetricsSample sample;
  sample.t_ns = NowNanos();
  sample.values = registry_->SampleValues();
  std::lock_guard<std::mutex> lock(mutex_);
  ring_[total_ % ring_.size()] = std::move(sample);
  ++total_;
}

void MetricsSampler::ThreadLoop() {
  const auto interval = std::chrono::milliseconds(
      options_.interval_ms < 1 ? 1 : options_.interval_ms);
  while (true) {
    SampleOnce();
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, interval, [this] { return stop_requested_; });
    if (stop_requested_) return;
  }
}

uint64_t MetricsSampler::total_samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::vector<MetricsSample> MetricsSampler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricsSample> out;
  const uint64_t retained =
      total_ < ring_.size() ? total_ : static_cast<uint64_t>(ring_.size());
  out.reserve(static_cast<size_t>(retained));
  const uint64_t first = total_ - retained;
  for (uint64_t i = first; i < total_; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

std::string MetricsSampler::ToJson() const {
  const std::vector<MetricsSample> samples = Snapshot();
  char buf[64];
  std::string out = "{\n";
  std::snprintf(buf, sizeof(buf), "  \"interval_ms\": %" PRId64 ",\n",
                options_.interval_ms);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"total_samples\": %" PRIu64 ",\n",
                total_samples());
  out += buf;
  out += "  \"samples\": [";
  for (size_t i = 0; i < samples.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    std::snprintf(buf, sizeof(buf), "    {\"t_ns\": %" PRId64
                  ", \"values\": {", samples[i].t_ns);
    out += buf;
    for (size_t j = 0; j < samples[i].values.size(); ++j) {
      if (j > 0) out += ", ";
      AppendJsonString(&out, samples[i].values[j].first);
      std::snprintf(buf, sizeof(buf), ": %" PRId64,
                    samples[i].values[j].second);
      out += buf;
    }
    out += "}}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace obs
}  // namespace uot

#include "obs/metrics.hpp"

#include <algorithm>

namespace coca::obs {

void Histogram::record(double v) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (data_.count == 0) {
    data_.min = v;
    data_.max = v;
  } else {
    data_.min = std::min(data_.min, v);
    data_.max = std::max(data_.max, v);
  }
  ++data_.count;
  data_.sum += v;
}

HistogramSnapshot Histogram::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return data_;
}

namespace {
std::atomic<std::uint64_t> g_next_registry_id{1};
std::atomic<Registry*> g_registry{nullptr};
}  // namespace

Registry::Registry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::int64_t Registry::counter_value(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second->value() : 0;
}

double Registry::gauge_max(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second->max() : 0.0;
}

std::map<std::string, std::int64_t> Registry::counter_values() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, GaugeSnapshot> Registry::gauge_values() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, GaugeSnapshot> out;
  for (const auto& [name, gauge] : gauges_) {
    out[name] = GaugeSnapshot{gauge->value(), gauge->max()};
  }
  return out;
}

std::map<std::string, HistogramSnapshot> Registry::histogram_values() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, histogram] : histograms_) {
    out[name] = histogram->snapshot();
  }
  return out;
}

Registry* global() { return g_registry.load(std::memory_order_acquire); }

void set_global(Registry* registry) {
  g_registry.store(registry, std::memory_order_release);
}

}  // namespace coca::obs

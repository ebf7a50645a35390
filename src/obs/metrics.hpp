#pragma once
// Lock-cheap metrics registry: counters, gauges and histograms for the hot
// paths (solvers, thread pool, simulator).
//
// Design rules, in order:
//   1. Off by default, near-free when off.  The process-global sink starts
//      null; every free helper below (obs::count, obs::observe, ...) is a
//      single relaxed pointer load + branch when no registry is installed.
//   2. Lock-cheap when on.  Counters and gauges are single atomics;
//      histograms take one short mutex.  Hot loops cache the Counter*
//      returned by the registry instead of re-resolving names.
//   3. Deterministic reporting.  Snapshots iterate name-sorted maps, so a
//      rendered report is a pure function of the recorded values.  Metrics
//      never feed back into any solver decision — they are write-only from
//      the model's point of view, which is what keeps the bit-identical
//      across-thread-counts guarantee intact.
//
// Stage timing is the spans' (obs/span.hpp), through obs/clock.hpp, the
// tree's only waivered wall-clock boundary.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace coca::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written value plus a running maximum (e.g. queue depth).
class Gauge {
 public:
  void set(double v) {
    value_.store(v, std::memory_order_relaxed);
    update_max(v);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

 private:
  void update_max(double v) {
    double seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

struct GaugeSnapshot {
  double value = 0.0;
  double max = 0.0;
};

struct HistogramSnapshot {
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Value distribution (count/sum/min/max); one short mutex per histogram.
class Histogram {
 public:
  void record(double v);
  HistogramSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  HistogramSnapshot data_ GUARDED_BY(mutex_);
};

class Registry {
 public:
  Registry();

  /// Find-or-create by name.  Returned references stay valid for the
  /// registry's lifetime (instruments are heap-pinned), so hot paths can
  /// resolve once and cache.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Never 0 and distinct for every registry the process constructs, so a
  /// hot path's cache of resolved instruments, keyed on the installed
  /// registry's id, cannot mistake a new registry at a reused address for
  /// the one it resolved them in.
  std::uint64_t id() const { return id_; }

  /// Convenience for tests: current value of a counter (0 if absent).
  std::int64_t counter_value(std::string_view name) const;
  /// Convenience for benches: a gauge's running maximum (0 if absent).
  double gauge_max(std::string_view name) const;

  /// Deterministic (name-sorted) enumeration snapshots — the raw material
  /// for obs/exposition.hpp's RegistrySnapshot and Prometheus rendering.
  std::map<std::string, std::int64_t> counter_values() const;
  std::map<std::string, GaugeSnapshot> gauge_values() const;
  std::map<std::string, HistogramSnapshot> histogram_values() const;

 private:
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mutex_);
};

/// Process-global sink; null (all helpers no-op) until set_global installs
/// one.  Install before spawning workers; the pointer itself is atomic.
Registry* global();
void set_global(Registry* registry);

/// RAII guard for tests/benches: installs a registry, restores on exit.
class GlobalRegistryScope {
 public:
  explicit GlobalRegistryScope(Registry* registry)
      : previous_(global()) {
    set_global(registry);
  }
  ~GlobalRegistryScope() { set_global(previous_); }
  GlobalRegistryScope(const GlobalRegistryScope&) = delete;
  GlobalRegistryScope& operator=(const GlobalRegistryScope&) = delete;

 private:
  Registry* previous_;
};

/// Bump `name` in the global registry (no-op when none installed).
inline void count(const char* name, std::int64_t n = 1) {
  if (Registry* r = global()) r->counter(name).add(n);
}

inline void gauge_set(const char* name, double v) {
  if (Registry* r = global()) r->gauge(name).set(v);
}

// OBS-EXEMPT(sub-microsecond hot-path recorder; a span here would dominate)
inline void observe(const char* name, double v) {
  if (Registry* r = global()) r->histogram(name).record(v);
}

}  // namespace coca::obs

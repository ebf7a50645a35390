#pragma once
// Hierarchical scoped spans: the per-stage profile of the slot pipeline.
//
// A span is a named RAII scope; nested spans form slash-separated paths
// (`slot/gsd_chain[0]/sweep_iter/load_lp`).  Each thread keeps its own open-
// span stack, so nesting is free of locks on the hot path; completed spans
// aggregate (count, total time, self time) into a process-global
// SpanProfiler keyed by path.  Work handed to another thread keeps its place
// in the hierarchy by capturing `current_span_path()` on the dispatching
// thread and passing it to the ScopedSpan(name, parent_path) overload — this
// is what keeps the profile's *paths and counts* identical across thread
// counts (multi-chain GSD, SweepRunner fan-out).
//
// Determinism contract: counts are a pure function of the inputs; times are
// wall-clock (via obs/clock.hpp, the waivered boundary) and are masked by
// obs::mask_timing_fields before golden comparisons.  Self time subtracts
// the time of child spans *recorded on the same thread*; a child running on
// a worker thread still lands under its captured parent path but cannot be
// subtracted from the parent frame (the parent is blocked waiting — its
// self time then includes the wait, which the mask hides anyway).
//
// Like the metrics registry, the global profiler is null by default (every
// hook is one relaxed pointer load).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/clock.hpp"
#include "util/thread_annotations.hpp"

namespace coca::obs {

inline constexpr const char* kSpanProfileSchema = "coca-span-profile-v1";

struct SpanStats {
  std::int64_t count = 0;     ///< completed spans on this path (deterministic)
  std::int64_t total_ns = 0;  ///< wall time, children included
  std::int64_t self_ns = 0;   ///< wall time minus same-thread children
};

/// Aggregated per-path span statistics.  Thread-safe; one short mutex per
/// add (spans fire at stage granularity, not per instruction).
class SpanProfiler {
 public:
  void add(const std::string& path, std::int64_t total_ns,
           std::int64_t self_ns);

  /// Path-sorted copy of everything recorded.
  std::map<std::string, SpanStats> snapshot() const;

  /// One-line JSON document, path-sorted:
  ///   {"schema":"coca-span-profile-v1","spans":[
  ///     {"path":"slot","count":40,"total_ms":1.5,"self_ms":0.2},...]}
  /// `count` is deterministic; the *_ms fields are timing and are zeroed by
  /// obs::mask_timing_fields for golden comparisons.
  std::string to_json() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, SpanStats> spans_ GUARDED_BY(mutex_);
};

/// Process-global profiler; null (spans are no-ops) until installed.
SpanProfiler* span_profiler();
void set_span_profiler(SpanProfiler* profiler);

/// RAII guard for tests/benches: installs a profiler, restores on exit.
class SpanProfilerScope {
 public:
  explicit SpanProfilerScope(SpanProfiler* profiler)
      : previous_(span_profiler()) {
    set_span_profiler(profiler);
  }
  ~SpanProfilerScope() { set_span_profiler(previous_); }
  SpanProfilerScope(const SpanProfilerScope&) = delete;
  SpanProfilerScope& operator=(const SpanProfilerScope&) = delete;

 private:
  SpanProfiler* previous_;
};

/// The calling thread's open-span path ("" outside any span).  Capture this
/// before dispatching work to a pool so the worker's spans keep their place
/// in the hierarchy (ScopedSpan's parent_path overload).
std::string current_span_path();

/// RAII span.  Inactive (no clock read, no allocation) when no profiler is
/// installed at construction.
class ScopedSpan {
 public:
  /// Nested under the calling thread's innermost open span.
  explicit ScopedSpan(std::string_view name);
  /// Nested under an explicitly captured parent path (cross-thread dispatch;
  /// "" roots the span).
  ScopedSpan(std::string_view name, const std::string& parent_path);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void open(std::string_view name, const std::string& parent_path,
            SpanProfiler* profiler);

  SpanProfiler* profiler_ = nullptr;  ///< null = inactive span
  std::int64_t start_ns_ = 0;
};

}  // namespace coca::obs

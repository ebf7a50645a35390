#pragma once
// SweepRunner: deterministic parallel evaluation of independent sweep points.
//
// Every figure and ablation bench is a sweep: dozens of independent
// (controller-config, scenario) points, each a year-scale simulation or a
// calibration loop, evaluated back-to-back.  The points share no mutable
// state (the whole sim stack is re-entrant), so they can run concurrently.
// SweepRunner owns the thread pool and guarantees *determinism*: results
// come back in point order, written each into its own slot — so a sweep at
// N threads is bit-identical to the same sweep at 1 thread, and to any
// repeated invocation with the same inputs.
//
// Thread count: SweepOptions::threads when non-zero, else util::ThreadPool's
// default (the COCA_THREADS environment variable, else the hardware).

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace coca::sim {

struct SweepOptions {
  std::size_t threads = 0;  ///< 0 = COCA_THREADS env, else hardware threads
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  std::size_t threads() const { return pool_.thread_count(); }
  /// Deepest task-queue occupancy the pool has seen (saturation signal for
  /// BENCH reports; nondeterministic, so timing-classed in bench_diff).
  std::size_t queue_high_water() const { return pool_.queue_high_water(); }

  /// Evaluate fn(i) for every point i in [0, n) and return the results in
  /// point order, independent of thread count and completion order.
  /// R must be default-constructible (each point overwrites its own slot).
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    obs::count("sweep.points", static_cast<std::int64_t>(n));
    // Capture the dispatching thread's span path so each point's span keeps
    // its place in the hierarchy regardless of which worker runs it (profile
    // paths and counts stay independent of the thread count).
    const std::string span_parent = obs::current_span_path();
    std::vector<R> results(n);
    pool_.parallel_for(n, [&](std::size_t i) {
      const obs::ScopedSpan point_span("sweep_point", span_parent);
      results[i] = fn(i);
    });
    return results;
  }

  /// Evaluate fn(point) for every point of a sweep axis; results in axis
  /// order.
  template <typename T, typename Fn>
  auto map(const std::vector<T>& points, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const T&>> {
    return map(points.size(),
               [&](std::size_t i) { return fn(points[i]); });
  }

 private:
  util::ThreadPool pool_;
};

}  // namespace coca::sim

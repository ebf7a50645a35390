#pragma once
// Fixed-size worker pool: the substrate of every parallel layer in the repo
// (multi-chain GSD, sim::SweepRunner, bench sweeps).
//
// Design constraints, in order:
//   1. Determinism.  The pool never *orders* results: callers own an output
//      slot per work item, so merged results are a pure function of the
//      inputs, independent of thread count and completion order.
//      `parallel_for` enforces this by construction and rethrows the
//      first exception *by index* (not by completion time).
//   2. Exception safety.  `submit` returns a std::future that carries the
//      task's value or exception; a throwing task never takes down a worker.
//   3. Reusability.  The pool is valid after `wait()`; submit/wait cycles
//      can repeat for the lifetime of the pool.  The destructor drains the
//      queue and joins.
//
// A pool with `threads == 1` still runs one worker thread, so single-thread
// runs exercise the same code path as parallel ones — making "1 thread vs N
// threads bit-identical" a meaningful regression check.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace coca::util {

class ThreadPool {
 public:
  /// `threads == 0` reads the COCA_THREADS environment variable when it is
  /// set and >= 1, else picks one worker per hardware thread (at least one).
  /// sim::SweepRunner and des::ShardRunner pass their 0 default through.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Deepest task-queue occupancy seen over the pool's lifetime.  The
  /// instantaneous depth (the `pool.queue_depth` gauge) is racy by nature;
  /// the high-water mark is the stable saturation signal and is reported
  /// alongside it as `pool.queue_high_water`.
  std::size_t queue_high_water() const;

  /// Queue a callable; the returned future carries its result or exception.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    // std::function must be copyable, std::packaged_task is not: share it.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    post([task]() { (*task)(); });
    return result;
  }

  /// Evaluate fn(i) for every i in [0, n); blocks until all complete.
  /// Work is distributed dynamically, but the outcome is deterministic:
  /// each index writes only its own state, and if any calls throw, the
  /// exception of the *lowest* throwing index is rethrown.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    if (thread_count() <= 1 || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::future<void>> pending;
    pending.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      pending.push_back(submit([&fn, &errors, i]() {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }));
    }
    for (auto& future : pending) future.get();
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  /// Block until every task submitted so far has finished executing.
  void wait();

 private:
  void post(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  std::size_t queue_high_water_ GUARDED_BY(mutex_) = 0;  ///< deepest queue_
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ GUARDED_BY(mutex_) = 0;  ///< queued + executing
  bool stopping_ GUARDED_BY(mutex_) = false;
};

}  // namespace coca::util

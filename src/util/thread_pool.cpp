#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.hpp"

namespace coca::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const char* env = std::getenv("COCA_THREADS");
    const unsigned long parsed =
        env != nullptr ? std::strtoul(env, nullptr, 10) : 0;
    threads = parsed >= 1 ? static_cast<std::size_t>(parsed)
                          : std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::post(std::function<void()> task) {
  std::size_t depth = 0;
  std::size_t high_water = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
    depth = queue_.size();
    if (depth > queue_high_water_) queue_high_water_ = depth;
    high_water = queue_high_water_;
  }
  // Pool health metrics (no-ops without a registry): submission rate, the
  // instantaneous backlog, and the deepest backlog seen — the utilization
  // signals the ROADMAP's batching/sharding work needs.  The instantaneous
  // depth is racy (workers may pop before this line runs); the high-water
  // mark is tracked under the lock and is the stable saturation signal.
  obs::count("pool.tasks_submitted");
  obs::gauge_set("pool.queue_depth", static_cast<double>(depth));
  obs::gauge_set("pool.queue_high_water", static_cast<double>(high_water));
  task_ready_.notify_one();
}

std::size_t ThreadPool::queue_high_water() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return queue_high_water_;
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this]() { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock,
                       [this]() { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: queued work always runs, so a
      // pool can be destroyed right after its last submit.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
    obs::count("pool.tasks_executed");
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace coca::util

// Stress and contract tests for util::ThreadPool: concurrent submission,
// exception propagation (through futures and parallel_for), reuse across
// wait() cycles, and queue draining at destruction.  This binary is the
// primary target of the ThreadSanitizer CTest path
// (cmake -DCOCA_SANITIZE=thread).

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace coca::util {
namespace {

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto doubled = pool.submit([]() { return 21 * 2; });
  auto text = pool.submit([]() { return std::string("ok"); });
  EXPECT_EQ(doubled.get(), 42);
  EXPECT_EQ(text.get(), "ok");
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto failing = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
  // The worker survives the throw and keeps serving.
  EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1'000;
  std::vector<int> hits(kN, 0);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), int(kN));
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPool, ParallelForRethrowsLowestThrowingIndex) {
  ThreadPool pool(4);
  // Two indices throw; the rethrown exception must deterministically be the
  // lowest index, independent of which task finishes first.
  for (int repeat = 0; repeat < 5; ++repeat) {
    try {
      pool.parallel_for(100, [&](std::size_t i) {
        if (i == 37 || i == 83) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      FAIL() << "parallel_for should have thrown";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "37");
    }
  }
}

TEST(ThreadPool, ReusableAcrossWaitCycles) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter]() { ++counter; });
    }
    pool.wait();
    EXPECT_EQ(counter.load(), 50 * (cycle + 1));
  }
}

TEST(ThreadPool, ConcurrentSubmitFromManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kProducers = 4;
  constexpr int kTasksEach = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &counter]() {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.submit([&counter]() { ++counter; });
      }
    });
  }
  for (auto& producer : producers) producer.join();
  pool.wait();
  EXPECT_EQ(counter.load(), kProducers * kTasksEach);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&executed]() {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++executed;
      });
    }
  }  // destructor: all queued tasks still run
  EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPool, ParallelForOnSingleWorkerRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.parallel_for(8, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, QueueHighWaterTracksDeepestBacklog) {
  obs::Registry registry;
  obs::GlobalRegistryScope metrics(&registry);
  ThreadPool pool(2);
  EXPECT_EQ(pool.queue_high_water(), 0u);
  // Hold the gate so both workers block, then pile up a deterministic
  // backlog: the queue must have held at least those 8 tasks at once.
  std::mutex gate;
  std::unique_lock<std::mutex> hold(gate);
  for (int i = 0; i < 2; ++i) {
    pool.submit([&gate] { const std::lock_guard<std::mutex> lock(gate); });
  }
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  EXPECT_GE(pool.queue_high_water(), 8u);
  hold.unlock();
  pool.wait();
  // High-water is monotone: draining the queue must not reset it.
  EXPECT_GE(pool.queue_high_water(), 8u);
  // The same saturation signal is exported as a gauge.
  EXPECT_GE(registry.gauge("pool.queue_high_water").max(), 8.0);
}

TEST(ThreadPool, QueueHighWaterIsMonotoneUnderContention) {
  ThreadPool pool(2);
  // A sampler thread reads queue_high_water() continuously while producer
  // threads hammer the queue from outside: every consecutive pair of reads
  // must be non-decreasing — the mark may only ratchet up, never reset,
  // even while the workers are draining the queue underneath it.
  std::atomic<bool> done{false};
  std::atomic<std::size_t> violations{0};
  std::thread sampler([&pool, &done, &violations] {
    std::size_t last = 0;
    while (!done.load()) {
      const std::size_t now = pool.queue_high_water();
      if (now < last) ++violations;
      last = now;
      std::this_thread::yield();
    }
  });
  constexpr int kProducers = 4;
  constexpr int kTasksEach = 200;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.submit([] {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
      }
    });
  }
  for (auto& producer : producers) producer.join();
  pool.wait();
  const std::size_t after_drain = pool.queue_high_water();
  done.store(true);
  sampler.join();
  EXPECT_EQ(violations.load(), 0u);
  // 800 sleeping tasks against 2 workers guarantee a real backlog formed.
  EXPECT_GT(after_drain, 0u);
  // Further submit/wait cycles on the drained pool must not lower the mark.
  pool.submit([] {}).get();
  pool.wait();
  EXPECT_GE(pool.queue_high_water(), after_drain);
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait();  // nothing submitted: must not block
  SUCCEED();
}

}  // namespace
}  // namespace coca::util

// Contract tests for obs::AsyncTraceSink (obs/async_sink.hpp):
//   * byte identity with the synchronous SlotTraceWriter path (kBlock),
//   * kBlock backpressure loses nothing even through a tiny ring,
//   * kDropNewest counts every discarded record (dropped() and the
//     "obs.trace_dropped" counter) while a gated writer holds the ring full,
//   * flush() makes everything recorded so far visible without destruction,
//   * destruction during exception unwinding still leaves a complete trace,
//   * ring high-water tracking and file-sink round-trip,
//   * the batched hand-off: far fewer stream writes than lines, lines below
//     the batch threshold reach the stream at flush() and at destruction,
//     and the lines held never exceed ring_capacity under a gated writer.

#include "obs/async_sink.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coca::obs {
namespace {

/// `count` distinct slot records (varying fields catch reordering).
std::vector<SlotTrace> sample_slots(std::size_t count) {
  std::vector<SlotTrace> slots(count);
  for (std::size_t t = 0; t < count; ++t) {
    slots[t].t = t;
    slots[t].lambda = 100.0 + static_cast<double>(t);
    slots[t].q = static_cast<double>(t) * 0.5;
    slots[t].total_cost = 1.0 / (1.0 + static_cast<double>(t));
  }
  return slots;
}

/// What the synchronous path would write for the same records.
std::string sync_jsonl(const std::vector<SlotTrace>& slots,
                       const std::string& footer = {}) {
  SlotTraceWriter writer;
  for (const auto& slot : slots) writer.record(slot);
  if (!footer.empty()) writer.set_footer(footer);
  return writer.to_jsonl();
}

/// A streambuf whose writes block while the gate is closed — lets a test
/// pin the writer thread mid-line and fill the ring deterministically.
class GatedBuf : public std::streambuf {
 public:
  void close_gate() {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }
  void open_gate() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    opened_.notify_all();
  }
  std::string text() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return text_;
  }

 protected:
  int_type overflow(int_type ch) override {
    std::unique_lock<std::mutex> lock(mutex_);
    opened_.wait(lock, [this] { return open_; });
    if (ch != traits_type::eof()) text_ += traits_type::to_char_type(ch);
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::unique_lock<std::mutex> lock(mutex_);
    opened_.wait(lock, [this] { return open_; });
    text_.append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable opened_;
  bool open_ = true;
  std::string text_;
};

TEST(AsyncTraceSink, BytesIdenticalToSynchronousPath) {
  const auto slots = sample_slots(50);
  std::ostringstream out;
  {
    AsyncTraceSink sink(out);
    for (const auto& slot : slots) sink.record(slot);
  }  // destructor drains + flushes
  EXPECT_EQ(out.str(), sync_jsonl(slots));
}

TEST(AsyncTraceSink, FooterFollowsLastRecord) {
  const auto slots = sample_slots(5);
  const std::string footer = R"({"schema":"coca-span-profile-v1","spans":[]})";
  std::ostringstream out;
  {
    AsyncTraceSink sink(out);
    for (const auto& slot : slots) sink.record(slot);
    sink.set_footer(footer);
  }
  EXPECT_EQ(out.str(), sync_jsonl(slots, footer));
}

TEST(AsyncTraceSink, BlockPolicyLosesNothingThroughTinyRing) {
  // A 2-slot ring forces the producer to block repeatedly; every record must
  // still come out, in order, bit-identical to the sync path.
  const auto slots = sample_slots(200);
  std::ostringstream out;
  AsyncSinkOptions options;
  options.ring_capacity = 2;
  options.policy = Backpressure::kBlock;
  {
    AsyncTraceSink sink(out, options);
    for (const auto& slot : slots) sink.record(slot);
    EXPECT_EQ(sink.dropped(), 0);
  }
  EXPECT_EQ(out.str(), sync_jsonl(slots));
}

TEST(AsyncTraceSink, DropNewestCountsEveryDiscardedRecord) {
  Registry registry;
  GlobalRegistryScope metrics(&registry);
  const auto slots = sample_slots(20);
  GatedBuf buf;
  std::ostream out(&buf);
  AsyncSinkOptions options;
  options.ring_capacity = 4;
  options.policy = Backpressure::kDropNewest;
  std::int64_t dropped = 0;
  {
    AsyncTraceSink sink(out, options);
    buf.close_gate();  // writer blocks mid-line; ring can only fill
    for (const auto& slot : slots) sink.record(slot);
    // At most ring_capacity queued + 1 in the writer's hands can survive.
    dropped = sink.dropped();
    EXPECT_GE(dropped,
              static_cast<std::int64_t>(slots.size() - options.ring_capacity) -
                  1);
    EXPECT_GE(sink.high_water(), options.ring_capacity);
    buf.open_gate();
  }
  // Conservation: every record was either written or counted as dropped.
  std::istringstream written(buf.text());
  std::string line;
  std::int64_t lines = 0;
  while (std::getline(written, line)) ++lines;
  EXPECT_EQ(lines + dropped, static_cast<std::int64_t>(slots.size()));
  EXPECT_EQ(registry.counter_value("obs.trace_dropped"), dropped);
}

TEST(AsyncTraceSink, FlushMakesRecordsVisibleWithoutDestruction) {
  const auto slots = sample_slots(30);
  std::ostringstream out;
  AsyncTraceSink sink(out);
  for (const auto& slot : slots) sink.record(slot);
  sink.flush();
  EXPECT_EQ(out.str(), sync_jsonl(slots));
  // The sink stays usable after a flush.
  SlotTrace extra;
  extra.t = 999;
  sink.record(extra);
  sink.flush();
  EXPECT_EQ(out.str(), sync_jsonl(slots) + to_json_line(extra) + "\n");
}

TEST(AsyncTraceSink, ExceptionUnwindStillDrainsAndWritesFooter) {
  const auto slots = sample_slots(10);
  std::ostringstream out;
  try {
    AsyncTraceSink sink(out);
    for (const auto& slot : slots) sink.record(slot);
    sink.set_footer("{\"aborted\":true}");
    throw std::runtime_error("simulated failure mid-run");
  } catch (const std::runtime_error&) {
    // The sink destructed during unwinding: the trace must be complete.
  }
  EXPECT_EQ(out.str(), sync_jsonl(slots, "{\"aborted\":true}"));
}

TEST(AsyncTraceSink, HighWaterTracksDeepestOccupancy) {
  GatedBuf buf;
  std::ostream out(&buf);
  AsyncSinkOptions options;
  options.ring_capacity = 8;
  {
    AsyncTraceSink sink(out, options);
    EXPECT_EQ(sink.high_water(), 0u);
    buf.close_gate();
    const auto slots = sample_slots(6);  // fits: blocking never engages
    for (const auto& slot : slots) sink.record(slot);
    EXPECT_GE(sink.high_water(), 5u);  // writer may hold one record
    EXPECT_LE(sink.high_water(), 6u);
    buf.open_gate();
  }
}

TEST(AsyncTraceSink, FileSinkRoundTrips) {
  const auto slots = sample_slots(12);
  const std::string path = testing::TempDir() + "/async_sink_test.jsonl";
  {
    AsyncTraceSink sink(path);
    for (const auto& slot : slots) sink.record(slot);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), sync_jsonl(slots));
  std::remove(path.c_str());
}

TEST(AsyncTraceSink, FileSinkThrowsWhenUnopenable) {
  EXPECT_THROW(AsyncTraceSink("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

/// A streambuf that keeps what it is given and counts the calls that gave
/// it bytes, so a test can tell per-line writes from batched ones.
class CountingBuf : public std::streambuf {
 public:
  std::string text() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return text_;
  }
  std::size_t writes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return writes_;
  }

 protected:
  int_type overflow(int_type ch) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++writes_;
    if (ch != traits_type::eof()) text_ += traits_type::to_char_type(ch);
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++writes_;
    text_.append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  mutable std::mutex mutex_;
  std::string text_;
  std::size_t writes_ = 0;
};

/// Voluntary context switches of every thread of this process so far.
long voluntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

TEST(AsyncTraceSink, WritesWholeBatchesNotLines) {
  const auto slots = sample_slots(4096);
  CountingBuf buf;
  std::ostream out(&buf);
  const long switches_before = voluntary_switches();
  {
    AsyncTraceSink sink(out);
    for (const auto& slot : slots) sink.record(slot);
  }
  const long switches = voluntary_switches() - switches_before;
  EXPECT_EQ(buf.text(), sync_jsonl(slots));
  // One write per batch of up to half the ring's 1024 lines or 64 KiB; a
  // per-line writer makes at least 4096.
  EXPECT_LE(buf.writes(), slots.size() / 16);
  // The writer sleeps between batches (about 20 switches in all here); a
  // producer that wakes it for every line read about 285.
  EXPECT_LE(switches, static_cast<long>(slots.size() / 64));
}

TEST(AsyncTraceSink, LinesBelowTheBatchReachTheStreamAtFlushAndDestruction) {
  const auto slots = sample_slots(12);
  const std::vector<SlotTrace> first(slots.begin(), slots.begin() + 5);
  CountingBuf buf;
  std::ostream out(&buf);
  {
    AsyncTraceSink sink(out);
    for (const auto& slot : first) sink.record(slot);
    sink.record_line("{\"rule\":\"degraded_mode\"}");
    // Six lines of a 512-line batch: the writer has not been woken.
    EXPECT_EQ(buf.writes(), 0u);
    sink.flush();
    std::string expected = sync_jsonl(first) + "{\"rule\":\"degraded_mode\"}\n";
    EXPECT_EQ(buf.text(), expected);
    for (std::size_t t = 5; t < slots.size(); ++t) sink.record(slots[t]);
    sink.set_footer("{\"footer\":true}");
  }
  std::string expected = sync_jsonl(first) + "{\"rule\":\"degraded_mode\"}\n";
  for (std::size_t t = 5; t < slots.size(); ++t) {
    expected += to_json_line(slots[t]) + "\n";
  }
  EXPECT_EQ(buf.text(), expected + "{\"footer\":true}\n");
}

TEST(AsyncTraceSink, HighWaterNeverExceedsRingCapacityUnderAGatedWriter) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, std::size_t{1024}}) {
    const auto slots = sample_slots(3 * capacity + 5);
    AsyncSinkOptions options;
    options.ring_capacity = capacity;

    // kDropNewest: the producer never waits; the gated writer holds its
    // batch, so exactly ring_capacity lines are held and the rest dropped.
    {
      GatedBuf buf;
      std::ostream out(&buf);
      options.policy = Backpressure::kDropNewest;
      std::int64_t dropped = 0;
      {
        AsyncTraceSink sink(out, options);
        buf.close_gate();
        for (const auto& slot : slots) sink.record(slot);
        EXPECT_EQ(sink.high_water(), capacity) << capacity;
        dropped = sink.dropped();
        EXPECT_EQ(dropped, static_cast<std::int64_t>(slots.size() - capacity))
            << capacity;
        buf.open_gate();
      }
      std::istringstream written(buf.text());
      std::string line;
      std::int64_t lines = 0;
      while (std::getline(written, line)) ++lines;
      EXPECT_EQ(lines + dropped, static_cast<std::int64_t>(slots.size()));
    }

    // kBlock: the producer stalls once the sink holds ring_capacity lines;
    // opening the gate lets every record through, in order.
    {
      GatedBuf buf;
      std::ostream out(&buf);
      options.policy = Backpressure::kBlock;
      {
        AsyncTraceSink sink(out, options);
        buf.close_gate();
        std::thread producer([&] {
          for (const auto& slot : slots) sink.record(slot);
        });
        while (sink.high_water() < capacity) std::this_thread::yield();
        EXPECT_EQ(sink.high_water(), capacity) << capacity;
        buf.open_gate();
        producer.join();
        EXPECT_EQ(sink.dropped(), 0);
        EXPECT_LE(sink.high_water(), capacity) << capacity;
      }
      EXPECT_EQ(buf.text(), sync_jsonl(slots)) << capacity;
    }
  }
}

}  // namespace
}  // namespace coca::obs

// Contract tests for obs::AsyncTraceSink (obs/async_sink.hpp):
//   * byte identity with the synchronous SlotTraceWriter path (kBlock),
//   * kBlock backpressure loses nothing even through a tiny ring,
//   * kDropNewest counts every discarded record (dropped() and the
//     "obs.trace_dropped" counter) while a gated writer holds the ring full,
//   * flush() makes everything recorded so far visible without destruction,
//   * destruction during exception unwinding still leaves a complete trace,
//   * ring high-water tracking and file-sink round-trip.

#include "obs/async_sink.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
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

}  // namespace
}  // namespace coca::obs

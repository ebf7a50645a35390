#pragma once
// Background trace ingestion: a bounded single-producer ring buffer drained
// by one writer thread, so JSONL tracing costs the simulation thread a
// render + enqueue instead of a filesystem write.
//
// Contract, in order of importance:
//   1. Byte identity.  Records are rendered with to_json_line *on the
//      producer thread* (rendering is deterministic) and written strictly
//      FIFO, so with the kBlock policy the emitted bytes are identical to
//      SlotTraceWriter::write_jsonl of the same records — golden-tested by
//      tests/obs_async_sink_test.cpp and tests/obs_trace_golden_test.cpp.
//   2. Bounded memory.  The ring holds at most `ring_capacity` rendered
//      lines.  When full, the backpressure policy decides: kBlock stalls
//      the producer until the writer frees a slot (never loses a record);
//      kDropNewest discards the incoming record and counts it (dropped()
//      plus the obs counter "obs.trace_dropped") — byte identity is then
//      explicitly forfeited, which is why kBlock is the default.
//   3. Flush on destruction.  The destructor drains the ring, writes the
//      footer (when set), flushes the stream and joins the writer thread —
//      including during exception unwinding, so a throwing run still leaves
//      a complete trace behind.
//
// Never feeds back into any decision: the sink only observes.  The writer
// thread touches no model state, so tracing through this sink preserves the
// bit-identical-across-thread-counts guarantee (masked golden tests).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace coca::obs {

enum class Backpressure {
  kBlock,       ///< producer waits for a free slot — no record ever lost
  kDropNewest,  ///< incoming record discarded and counted
};

struct AsyncSinkOptions {
  std::size_t ring_capacity = 1024;  ///< bounded rendered-line slots
  Backpressure policy = Backpressure::kBlock;
};

class AsyncTraceSink final : public TraceSink {
 public:
  using Options = AsyncSinkOptions;

  /// Stream sink: `out` must outlive the sink.
  explicit AsyncTraceSink(std::ostream& out, Options options = Options());
  /// File sink; throws std::runtime_error when the file cannot open.
  explicit AsyncTraceSink(const std::string& path, Options options = Options());
  /// Drains, writes the footer, flushes and joins (see header comment).
  ~AsyncTraceSink() override;

  AsyncTraceSink(const AsyncTraceSink&) = delete;
  AsyncTraceSink& operator=(const AsyncTraceSink&) = delete;

  /// Render on the calling thread, enqueue for the writer.  Single
  /// producer: concurrent record() calls are not supported (the simulator
  /// loop is serial; parallel sweeps give each point its own sink).
  void record(const SlotTrace& slot) override;
  /// Enqueue a pre-rendered JSONL line (health events) through the same
  /// ring: backpressure, drop counting and FIFO order apply unchanged.
  void record_line(const std::string& line) override;
  /// Trailing JSONL line written once, after the last record, at the final
  /// drain (destruction or the flush that follows the last record).
  void set_footer(std::string footer_line) override;

  /// Block until everything recorded so far has reached the stream, then
  /// flush it.  The sink stays usable afterwards.
  void flush();

  /// Records discarded under kDropNewest (0 under kBlock).
  std::int64_t dropped() const;
  /// Deepest ring occupancy seen (saturation signal, like the pool's
  /// queue high-water mark).
  std::size_t high_water() const;
  const Options& options() const { return options_; }

 private:
  void writer_loop();
  void enqueue(std::string line);

  Options options_;
  std::unique_ptr<std::ofstream> owned_file_;  ///< set by the file ctor
  std::ostream* out_;

  mutable std::mutex mutex_;
  std::condition_variable ring_filled_;   ///< signals the writer
  std::condition_variable ring_drained_;  ///< signals blocked producer/flush
  /// Fixed-capacity circular buffer of rendered lines.
  std::vector<std::string> ring_ GUARDED_BY(mutex_);
  std::size_t head_ GUARDED_BY(mutex_) = 0;  ///< next line the writer takes
  std::size_t size_ GUARDED_BY(mutex_) = 0;  ///< occupied slots
  std::size_t high_water_ GUARDED_BY(mutex_) = 0;
  std::int64_t dropped_ GUARDED_BY(mutex_) = 0;
  /// A line is being written outside the lock.
  bool writer_busy_ GUARDED_BY(mutex_) = false;
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::string footer_ GUARDED_BY(mutex_);
  std::thread writer_;
};

}  // namespace coca::obs

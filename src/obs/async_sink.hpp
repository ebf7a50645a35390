#pragma once
// Background trace ingestion: a bounded single-producer line buffer drained
// in batches by one writer thread, so JSONL tracing costs the simulation
// thread a render + append instead of a filesystem write or a thread wake-up.
//
// Contract, in order of importance:
//   1. Byte identity.  Records are rendered with append_json_line *on the
//      producer thread* (rendering is deterministic) and written strictly
//      FIFO, so with the kBlock policy the emitted bytes are identical to
//      SlotTraceWriter::write_jsonl of the same records — golden-tested by
//      tests/obs_async_sink_test.cpp and tests/obs_trace_golden_test.cpp.
//   2. Bounded memory.  The sink holds at most `ring_capacity` rendered
//      lines: the pending lines plus the batch the writer is writing.  When
//      it is full, the backpressure policy decides: kBlock stalls the
//      producer until the writer finishes its batch (never loses a record);
//      kDropNewest discards the incoming record and counts it (dropped()
//      plus the obs counter "obs.trace_dropped") — byte identity is then
//      explicitly forfeited, which is why kBlock is the default.
//   3. Batched hand-off.  The producer appends each line to a pending byte
//      buffer and wakes the writer only when a batch is ready: half of
//      `ring_capacity` lines (at least one) or 64 KiB of pending bytes,
//      whichever comes first, so a full sink has always woken it.  flush()
//      and destruction also wake it.  The writer swaps the pending buffer
//      with its own (both are reused, so steady state allocates nothing) and
//      writes the whole batch with one stream write.  Lines below the batch
//      threshold therefore reach the stream only at the next batch, flush()
//      or destruction.
//   4. Flush on destruction.  The destructor drains every pending line,
//      writes the footer (when set), flushes the stream and joins the writer
//      thread — including during exception unwinding, so a throwing run
//      still leaves a complete trace behind.
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
#include <string_view>
#include <thread>

#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace coca::obs {

enum class Backpressure {
  kBlock,       ///< producer waits for room — no record ever lost
  kDropNewest,  ///< incoming record discarded and counted
};

struct AsyncSinkOptions {
  std::size_t ring_capacity = 1024;  ///< most rendered lines held at once
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

  /// Render on the calling thread, append for the writer.  Single
  /// producer: concurrent record() calls are not supported (the simulator
  /// loop is serial; parallel sweeps give each point its own sink).
  void record(const SlotTrace& slot) override;
  /// Append a pre-rendered JSONL line (health events) to the same buffer:
  /// backpressure, drop counting and FIFO order apply unchanged.
  void record_line(const std::string& line) override;
  /// Trailing JSONL line written once, after the last record, at
  /// destruction.
  void set_footer(std::string footer_line) override;

  /// Hand every line recorded so far to the writer, block until it has
  /// reached the stream, then flush the stream.  The sink stays usable
  /// afterwards.
  void flush();

  /// Records discarded under kDropNewest (0 under kBlock).
  std::int64_t dropped() const;
  /// Deepest count of lines held at once, pending plus the writer's batch
  /// (saturation signal, like the pool's queue high-water mark); never
  /// above `ring_capacity`.
  std::size_t high_water() const;
  const Options& options() const { return options_; }

 private:
  void writer_loop();
  void enqueue(std::string_view line);
  /// The pending lines fill a batch: wake the writer.
  bool batch_ready() const REQUIRES(mutex_);

  Options options_;
  std::size_t batch_lines_;  ///< half of ring_capacity, at least one
  std::unique_ptr<std::ofstream> owned_file_;  ///< set by the file ctor
  std::ostream* out_;
  /// record()'s render buffer, reused; touched only by the producer.
  std::string line_;

  mutable std::mutex mutex_;
  std::condition_variable writer_wake_;    ///< signals the writer
  std::condition_variable batch_written_;   ///< signals blocked producer/flush
  /// Rendered lines, each with its newline, not yet taken by the writer.
  std::string pending_ GUARDED_BY(mutex_);
  std::size_t pending_lines_ GUARDED_BY(mutex_) = 0;
  /// Lines in the batch the writer is writing outside the lock.
  std::size_t writing_lines_ GUARDED_BY(mutex_) = 0;
  std::size_t high_water_ GUARDED_BY(mutex_) = 0;
  std::int64_t dropped_ GUARDED_BY(mutex_) = 0;
  std::size_t flush_waiters_ GUARDED_BY(mutex_) = 0;
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::string footer_ GUARDED_BY(mutex_);
  /// The writer's batch: swapped with pending_ under the lock, written and
  /// cleared outside it; touched only by the writer thread.
  std::string batch_;
  std::thread writer_;
};

}  // namespace coca::obs

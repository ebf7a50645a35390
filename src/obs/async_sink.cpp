#include "obs/async_sink.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace coca::obs {

namespace {

/// Pending bytes that make a batch even below half the ring's lines.
constexpr std::size_t kBatchBytes = std::size_t{64} << 10;

}  // namespace

AsyncTraceSink::AsyncTraceSink(std::ostream& out, Options options)
    : options_(options),
      batch_lines_(std::max<std::size_t>(1, options.ring_capacity / 2)),
      out_(&out) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  writer_ = std::thread([this] { writer_loop(); });
}

AsyncTraceSink::AsyncTraceSink(const std::string& path, Options options)
    : options_(options),
      batch_lines_(std::max<std::size_t>(1, options.ring_capacity / 2)),
      owned_file_(std::make_unique<std::ofstream>(path)) {
  if (!*owned_file_) {
    throw std::runtime_error("AsyncTraceSink: cannot open " + path);
  }
  out_ = owned_file_.get();
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  writer_ = std::thread([this] { writer_loop(); });
}

AsyncTraceSink::~AsyncTraceSink() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  writer_wake_.notify_one();
  if (writer_.joinable()) writer_.join();
  // The writer drained every pending line before exiting; finish the file.
  if (!footer_.empty()) *out_ << footer_ << '\n';
  out_->flush();
  // Final saturation reading for BENCH reports (null-safe when no registry
  // is installed); the writer is joined, so high_water_ is stable.
  gauge_set("obs.sink_high_water", static_cast<double>(high_water_));
}

void AsyncTraceSink::record(const SlotTrace& slot) {
  // Render on the producer thread: append_json_line is deterministic, so
  // the bytes handed to the writer are exactly what the sync path writes.
  line_.clear();
  append_json_line(line_, slot);
  enqueue(line_);
}

void AsyncTraceSink::record_line(const std::string& line) {
  // Pre-rendered side-channel (health events): same buffer, same
  // backpressure, same FIFO interleaving with slot records.
  enqueue(line);
}

void AsyncTraceSink::set_footer(std::string footer_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  footer_ = std::move(footer_line);
}

bool AsyncTraceSink::batch_ready() const REQUIRES(mutex_) {
  // batch_lines_ <= ring_capacity, so a full sink is always a ready batch.
  return pending_lines_ >= batch_lines_ || pending_.size() >= kBatchBytes;
}

void AsyncTraceSink::enqueue(std::string_view line) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (pending_lines_ + writing_lines_ >= options_.ring_capacity) {
    if (options_.policy == Backpressure::kDropNewest) {
      ++dropped_;
      lock.unlock();
      count("obs.trace_dropped");
      return;
    }
    batch_written_.wait(lock, [this] {
      return pending_lines_ + writing_lines_ < options_.ring_capacity;
    });
  }
  // Wake the writer once per batch, on the line that completes it: until
  // it swaps the buffers, every later line finds the batch already ready.
  const bool was_ready = batch_ready();
  pending_ += line;
  pending_ += '\n';
  ++pending_lines_;
  high_water_ = std::max(high_water_, pending_lines_ + writing_lines_);
  const bool wake = !was_ready && batch_ready();
  lock.unlock();
  if (wake) writer_wake_.notify_one();
}

void AsyncTraceSink::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  ++flush_waiters_;
  writer_wake_.notify_one();
  batch_written_.wait(
      lock, [this] { return pending_lines_ == 0 && writing_lines_ == 0; });
  --flush_waiters_;
  out_->flush();
}

std::int64_t AsyncTraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::size_t AsyncTraceSink::high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

void AsyncTraceSink::writer_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    writer_wake_.wait(lock, [this] {
      return stopping_ || (pending_lines_ > 0 &&
                           (flush_waiters_ > 0 || batch_ready()));
    });
    if (pending_lines_ == 0) break;  // stopping_ and drained
    // batch_ is empty (cleared after its last write), so the producer gets
    // a reused buffer back and the writer takes every pending line.
    batch_.swap(pending_);
    writing_lines_ = pending_lines_;
    pending_lines_ = 0;
    lock.unlock();
    // One stream write per batch, outside the lock; FIFO order is
    // preserved because this is the only consumer.
    out_->write(batch_.data(), static_cast<std::streamsize>(batch_.size()));
    batch_.clear();
    lock.lock();
    writing_lines_ = 0;
    batch_written_.notify_all();
  }
}

}  // namespace coca::obs

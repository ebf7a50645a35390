#include "obs/async_sink.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace coca::obs {

AsyncTraceSink::AsyncTraceSink(std::ostream& out, Options options)
    : options_(options), out_(&out) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  ring_.resize(options_.ring_capacity);
  writer_ = std::thread([this] { writer_loop(); });
}

AsyncTraceSink::AsyncTraceSink(const std::string& path, Options options)
    : options_(options),
      owned_file_(std::make_unique<std::ofstream>(path)) {
  if (!*owned_file_) {
    throw std::runtime_error("AsyncTraceSink: cannot open " + path);
  }
  out_ = owned_file_.get();
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  ring_.resize(options_.ring_capacity);
  writer_ = std::thread([this] { writer_loop(); });
}

AsyncTraceSink::~AsyncTraceSink() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ring_filled_.notify_one();
  if (writer_.joinable()) writer_.join();
  // The writer drained the ring before exiting; finish the file.
  if (!footer_.empty()) *out_ << footer_ << '\n';
  out_->flush();
  // Final saturation reading for BENCH reports (null-safe when no registry
  // is installed); the writer is joined, so high_water_ is stable.
  gauge_set("obs.sink_high_water", static_cast<double>(high_water_));
}

void AsyncTraceSink::record(const SlotTrace& slot) {
  // Render on the producer thread: to_json_line is deterministic, so the
  // bytes handed to the ring are exactly what the sync path would write.
  enqueue(to_json_line(slot));
}

void AsyncTraceSink::record_line(const std::string& line) {
  // Pre-rendered side-channel (health events): same ring, same
  // backpressure, same FIFO interleaving with slot records.
  enqueue(line);
}

void AsyncTraceSink::set_footer(std::string footer_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  footer_ = std::move(footer_line);
}

void AsyncTraceSink::enqueue(std::string line) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (size_ == ring_.size()) {
    if (options_.policy == Backpressure::kDropNewest) {
      ++dropped_;
      lock.unlock();
      count("obs.trace_dropped");
      return;
    }
    ring_drained_.wait(lock, [this] { return size_ < ring_.size(); });
  }
  ring_[(head_ + size_) % ring_.size()] = std::move(line);
  ++size_;
  if (size_ > high_water_) high_water_ = size_;
  lock.unlock();
  ring_filled_.notify_one();
}

void AsyncTraceSink::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  ring_drained_.wait(lock, [this] { return size_ == 0 && !writer_busy_; });
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
    ring_filled_.wait(lock, [this] { return size_ > 0 || stopping_; });
    if (size_ == 0) break;  // stopping_ and drained
    std::string line = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --size_;
    writer_busy_ = true;
    lock.unlock();
    // Stream I/O outside the lock; FIFO order is preserved because this is
    // the only consumer.
    *out_ << line << '\n';
    lock.lock();
    writer_busy_ = false;
    ring_drained_.notify_all();
  }
}

}  // namespace coca::obs

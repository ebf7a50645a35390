#include "obs/span.hpp"

#include <atomic>
#include <vector>

#include "obs/json.hpp"

namespace coca::obs {

void SpanProfiler::add(const std::string& path, std::int64_t total_ns,
                       std::int64_t self_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanStats& stats = spans_[path];
  ++stats.count;
  stats.total_ns += total_ns;
  stats.self_ns += self_ns;
}

std::map<std::string, SpanStats> SpanProfiler::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string SpanProfiler::to_json() const {
  const auto spans = snapshot();
  // Plain appends only (see obs/trace.cpp for the -Wrestrict rationale).
  std::string out;
  out.reserve(64 + spans.size() * 96);
  out += "{\"schema\":\"";
  out += kSpanProfileSchema;
  out += "\",\"spans\":[";
  bool first = true;
  for (const auto& [path, stats] : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"path\":\"";
    append_json_escaped(out, path);
    out += "\",\"count\":";
    append_json_number(out, stats.count);
    out += ",\"total_ms\":";
    append_json_number(out, static_cast<double>(stats.total_ns) / 1e6);
    out += ",\"self_ms\":";
    append_json_number(out, static_cast<double>(stats.self_ns) / 1e6);
    out += '}';
  }
  out += "]}";
  return out;
}

void SpanProfiler::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

namespace {

std::atomic<SpanProfiler*> g_span_profiler{nullptr};

}  // namespace

SpanProfiler* span_profiler() {
  return g_span_profiler.load(std::memory_order_acquire);
}

void set_span_profiler(SpanProfiler* profiler) {
  g_span_profiler.store(profiler, std::memory_order_release);
}

namespace {

/// One open span on this thread.  `child_ns` accumulates the wall time of
/// directly nested spans so the parent can report self time.
struct SpanFrame {
  std::string path;
  std::int64_t child_ns = 0;
};

std::vector<SpanFrame>& span_stack() {
  thread_local std::vector<SpanFrame> stack;
  return stack;
}

}  // namespace

std::string current_span_path() {
  const auto& stack = span_stack();
  return stack.empty() ? std::string() : stack.back().path;
}

ScopedSpan::ScopedSpan(std::string_view name) {
  if (SpanProfiler* profiler = span_profiler()) {
    open(name, current_span_path(), profiler);
  }
}

ScopedSpan::ScopedSpan(std::string_view name, const std::string& parent_path) {
  if (SpanProfiler* profiler = span_profiler()) {
    open(name, parent_path, profiler);
  }
}

void ScopedSpan::open(std::string_view name, const std::string& parent_path,
                      SpanProfiler* profiler) {
  profiler_ = profiler;
  std::string path;
  path.reserve(parent_path.size() + 1 + name.size());
  if (!parent_path.empty()) {
    path += parent_path;
    path += '/';
  }
  path += name;
  span_stack().push_back(SpanFrame{std::move(path), 0});
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (profiler_ == nullptr) return;
  const std::int64_t elapsed_ns = now_ns() - start_ns_;
  auto& stack = span_stack();
  SpanFrame frame = std::move(stack.back());
  stack.pop_back();
  if (!stack.empty()) stack.back().child_ns += elapsed_ns;
  profiler_->add(frame.path, elapsed_ns, elapsed_ns - frame.child_ns);
}

}  // namespace coca::obs

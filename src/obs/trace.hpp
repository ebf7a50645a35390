#pragma once
// Structured per-slot trace of a simulation run, written as JSONL (one JSON
// object per slot, in slot order).
//
// The record carries everything needed to audit a controller decision after
// the fact: the slot's environment (lambda, price w, on-site r, off-site f),
// the Lyapunov state (q before the solve, V), a summary of the chosen speed
// vector, the realized cost breakdown (electricity / delay / REC spend),
// solver internals (GSD evaluations, acceptance rate, winning chain) and the
// solve wall time.
//
// Determinism contract: records are appended by the (serial) simulator loop
// and rendered in slot order, and every field except `solve_ms` is a pure
// function of the inputs — so two traces of the same run at different thread
// counts are byte-identical once timing fields are masked (enforced by
// tests/obs_trace_golden_test.cpp).  Schema documented in README
// "Observability"; bump `kSlotTraceSchema` when fields change.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace coca::obs {

inline constexpr const char* kSlotTraceSchema = "coca-slot-trace-v1";

struct SlotTrace {
  std::size_t t = 0;
  // Environment (the paper's lambda(t), w(t), r(t), f(t)).
  double lambda = 0.0;
  double price = 0.0;
  double onsite_kw = 0.0;
  double offsite_kwh = 0.0;
  // Lyapunov state at plan time.
  double q = 0.0;
  double v = 0.0;
  // Chosen speed vector summary.
  double active_servers = 0.0;
  double mean_speed_level = 0.0;  ///< active-weighted mean level index
  bool feasible = true;
  // Realized cost breakdown.
  double brown_kwh = 0.0;
  double electricity_cost = 0.0;
  double delay_cost = 0.0;
  double rec_cost = 0.0;  ///< dynamic REC spend billed this slot ($)
  double total_cost = 0.0;
  // Solver internals (zeros for solvers that do not report them).
  std::int64_t evaluations = 0;
  double acceptance_rate = 0.0;
  std::int64_t chains = 0;
  std::int64_t winning_chain = -1;
  // Fault injection (src/fault).  `fault_active` gates serialization: on
  // clean slots the four fields are omitted entirely, so fault-free traces
  // stay byte-identical to the pre-fault schema.
  bool fault_active = false;
  bool degraded = false;        ///< slot ran on a degraded fleet
  std::int64_t stale_inputs = 0;  ///< stale input channels at plan time
  bool fallback = false;        ///< deadline fallback actuated
  double shed_lambda = 0.0;     ///< arrival rate shed this slot (req/s)
  // Timing: the one field excluded from golden comparisons.
  double solve_ms = 0.0;
};

/// Append one record to `out` as a single JSON line (no trailing newline),
/// with a fixed key order and std::to_chars number formatting.
void append_json_line(std::string& out, const SlotTrace& slot);

/// The same line, returned as a new string.
std::string to_json_line(const SlotTrace& slot);

/// Where slot records go.  The simulator only depends on this interface, so
/// the same run can feed the in-memory SlotTraceWriter or the background
/// AsyncTraceSink (obs/async_sink.hpp) interchangeably.  Single-producer:
/// the (serial) simulator loop records in slot order.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const SlotTrace& slot) = 0;
  /// Generic pre-rendered JSONL line (no trailing newline) — the channel
  /// the health plane (obs/health.hpp) emits coca-health-v1 events through,
  /// so async/backpressure semantics come from the sink unchanged.  Default:
  /// ignored (sinks that only understand slot records stay valid).
  virtual void record_line(const std::string& line) { (void)line; }
  /// Optional trailing JSONL line (e.g. the span-profile document from
  /// obs/span.hpp), written after every slot record.  Default: ignored.
  virtual void set_footer(std::string footer_line) { (void)footer_line; }
};

/// Collects slot records and writes them as JSONL.  Parallel sweeps give
/// each point its own writer.
class SlotTraceWriter : public TraceSink {
 public:
  void record(const SlotTrace& slot) override { slots_.push_back(slot); }
  void record_line(const std::string& line) override {
    lines_.push_back(line);
  }
  void set_footer(std::string footer_line) override {
    footer_ = std::move(footer_line);
  }
  const std::vector<SlotTrace>& slots() const { return slots_; }
  /// Generic JSONL lines (health events), in recorded order; written after
  /// the slot records and before the footer.
  const std::vector<std::string>& lines() const { return lines_; }
  std::size_t size() const { return slots_.size(); }
  void clear() {
    slots_.clear();
    lines_.clear();
    footer_.clear();
  }

  /// One JSON object per line, in recorded (slot) order; the footer line
  /// (when set) follows the last slot.
  void write_jsonl(std::ostream& out) const;
  /// Entire trace as a string (tests, golden comparisons).
  std::string to_jsonl() const;
  /// Write to a file; throws std::runtime_error when the file cannot open.
  void write_jsonl_file(const std::string& path) const;

 private:
  std::vector<SlotTrace> slots_;
  std::vector<std::string> lines_;
  std::string footer_;
};

/// Zero every timing value (`solve_ms`, and the span profile's `total_ms` /
/// `self_ms`) in a JSONL trace so golden tests can compare the
/// deterministic remainder byte-for-byte.  Timing-ruled coca-health-v1
/// events (`value_ms`/`limit_ms` lines) are dropped whole: they fire off
/// wall-clock readings, so even their existence varies run to run.
std::string mask_timing_fields(const std::string& jsonl);

}  // namespace coca::obs

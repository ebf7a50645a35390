#pragma once
// Outside-in probes: everything the benchmark measures it measures from
// outside the library, through public entry points.
//
//   * TimedController forwards every core::SlotController call to the real
//     controller and times plan / observe / checkpoint / restore (and counts
//     set_fleet), so per-layer controller time needs no hook inside src/.
//   * TimedSink forwards obs::TraceSink calls and times record/record_line.
//   * Usage snapshots getrusage around a timed section (CPU, context
//     switches, peak RSS).
//   * host_calibration() times two fixed kernels so a slow host window or a
//     host-capped parallel speedup can be told apart from a regression.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Monotonic seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process counters from getrusage(RUSAGE_SELF).
struct Usage {
  double cpu_s = 0.0;              ///< user + system CPU seconds
  std::int64_t voluntary_switches = 0;
  double max_rss_mib = 0.0;        ///< peak resident set so far

  static Usage now();
};

/// Per-call time of the controller's public entry points, summed over every
/// controller a TimedController wrapped with the same Calls.
struct ControllerCalls {
  std::vector<double> plan_s;      ///< one entry per plan() call
  double observe_s = 0.0;
  double checkpoint_s = 0.0;
  double restore_s = 0.0;
  std::int64_t checkpoints = 0;
  std::int64_t restores = 0;
  std::int64_t fleet_swaps = 0;    ///< set_fleet() calls
  /// GSD SlotDiagnostics summed over the slots a GSD chain ran (read once
  /// per slot, after observe).
  std::int64_t gsd_evaluations = 0;
  std::int64_t gsd_accepted = 0;

  double plan_total_s() const;
  /// Everything spent inside the controller's entry points.
  double total_s() const {
    return plan_total_s() + observe_s + checkpoint_s + restore_s;
  }
};

/// Forwarding SlotController decorator.  Decisions are the wrapped
/// controller's, bit for bit: every call is forwarded unchanged.
class TimedController final : public coca::core::SlotController {
 public:
  TimedController(coca::core::SlotController& inner, ControllerCalls& calls)
      : inner_(&inner), calls_(&calls) {}

  std::string name() const override { return inner_->name(); }
  coca::opt::SlotSolution plan(std::size_t t,
                               const coca::opt::SlotInput& input) override;
  void observe(std::size_t t, const coca::opt::SlotOutcome& billed,
               double offsite_kwh) override;
  double diagnostic_queue_length() const override {
    return inner_->diagnostic_queue_length();
  }
  coca::core::SlotDiagnostics diagnostics(std::size_t t) const override;
  void set_fleet(const coca::dc::Fleet& fleet) override;
  void set_evaluation_budget(std::int64_t max_evaluations) override {
    inner_->set_evaluation_budget(max_evaluations);
  }
  bool supports_checkpoint() const override {
    return inner_->supports_checkpoint();
  }
  std::string checkpoint(std::size_t upto_slot) const override;
  void restore(const std::string& blob) override;

 private:
  coca::core::SlotController* inner_;
  ControllerCalls* calls_;
  /// The simulator reads diagnostics() once after observe() (and, on a crash
  /// slot, once more before plan()); only the post-observe read is summed.
  mutable bool diagnostics_due_ = false;
};

/// Time and volume of trace-sink traffic.
struct SinkCalls {
  double seconds = 0.0;
  std::int64_t records = 0;  ///< slot records
  std::int64_t lines = 0;    ///< pre-rendered lines (health events)
};

/// Forwarding obs::TraceSink decorator.
class TimedSink final : public coca::obs::TraceSink {
 public:
  TimedSink(coca::obs::TraceSink& inner, SinkCalls& calls)
      : inner_(&inner), calls_(&calls) {}

  void record(const coca::obs::SlotTrace& slot) override;
  void record_line(const std::string& line) override;
  void set_footer(std::string footer_line) override {
    inner_->set_footer(std::move(footer_line));
  }

 private:
  coca::obs::TraceSink* inner_;
  SinkCalls* calls_;
};

/// An ostream that accepts and discards everything (the async sink's
/// writer still formats and writes every line; only the bytes vanish).
class DiscardStream : public std::ostream {
 public:
  DiscardStream() : std::ostream(&buffer_) {}

 private:
  struct Buffer : std::streambuf {
    int_type overflow(int_type c) override { return traits_type::not_eof(c); }
    std::streamsize xsputn(const char*, std::streamsize n) override {
      return n;
    }
  };
  Buffer buffer_;
};

struct HostCalibration {
  double ref_ms = 0.0;       ///< fixed single-thread pointer chase
  double parallelism = 0.0;  ///< throughput of a fixed spin, 2 threads vs 1
};

/// Time the reference kernels (a few hundred milliseconds in total).
HostCalibration host_calibration();

}  // namespace perfbench

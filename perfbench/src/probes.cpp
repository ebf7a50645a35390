#include "probes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "util/stats.hpp"

namespace perfbench {

Usage Usage::now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage out;
  out.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  out.voluntary_switches = usage.ru_nvcsw;
  out.max_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return out;
}

double ControllerCalls::plan_total_s() const {
  return std::accumulate(plan_s.begin(), plan_s.end(), 0.0);
}

coca::opt::SlotSolution TimedController::plan(
    std::size_t t, const coca::opt::SlotInput& input) {
  const double start = now_s();
  coca::opt::SlotSolution solution = inner_->plan(t, input);
  calls_->plan_s.push_back(now_s() - start);
  return solution;
}

void TimedController::observe(std::size_t t,
                              const coca::opt::SlotOutcome& billed,
                              double offsite_kwh) {
  const double start = now_s();
  inner_->observe(t, billed, offsite_kwh);
  calls_->observe_s += now_s() - start;
  diagnostics_due_ = true;
}

coca::core::SlotDiagnostics TimedController::diagnostics(std::size_t t) const {
  coca::core::SlotDiagnostics d = inner_->diagnostics(t);
  if (diagnostics_due_) {
    diagnostics_due_ = false;
    if (d.solver_chains > 0) {  // a GSD chain ran (0 for the ladder)
      calls_->gsd_evaluations += d.solver_evaluations;
      calls_->gsd_accepted += d.solver_accepted;
    }
  }
  return d;
}

void TimedController::set_fleet(const coca::dc::Fleet& fleet) {
  ++calls_->fleet_swaps;
  inner_->set_fleet(fleet);
}

std::string TimedController::checkpoint(std::size_t upto_slot) const {
  const double start = now_s();
  std::string blob = inner_->checkpoint(upto_slot);
  calls_->checkpoint_s += now_s() - start;
  ++calls_->checkpoints;
  return blob;
}

void TimedController::restore(const std::string& blob) {
  const double start = now_s();
  inner_->restore(blob);
  calls_->restore_s += now_s() - start;
  ++calls_->restores;
}

void TimedSink::record(const coca::obs::SlotTrace& slot) {
  const double start = now_s();
  inner_->record(slot);
  calls_->seconds += now_s() - start;
  ++calls_->records;
}

void TimedSink::record_line(const std::string& line) {
  const double start = now_s();
  inner_->record_line(line);
  calls_->seconds += now_s() - start;
  ++calls_->lines;
}

namespace {

// Pointer chase over a 4 MiB single-cycle permutation (Sattolo's algorithm
// on a fixed LCG), 2^20 dependent loads: latency-bound, single thread.
constexpr std::size_t kChaseEntries = std::size_t{1} << 20;
constexpr std::size_t kChaseSteps = std::size_t{1} << 20;
// Integer spin with no memory traffic; the same fixed work per thread.
constexpr std::uint64_t kSpinIterations = 20'000'000;
constexpr int kRepeats = 3;

std::vector<std::uint32_t> chase_cycle() {
  std::vector<std::uint32_t> next(kChaseEntries);
  std::iota(next.begin(), next.end(), 0u);
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = kChaseEntries - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t j = static_cast<std::size_t>(state >> 33) % i;
    std::swap(next[i], next[j]);
  }
  return next;
}

double chase_ms(const std::vector<std::uint32_t>& next) {
  const double start = now_s();
  std::uint32_t at = 0;
  for (std::size_t step = 0; step < kChaseSteps; ++step) at = next[at];
  const double elapsed = now_s() - start;
  // Publish the walk's end so the loop cannot be elided.
  volatile std::uint32_t sink = at;
  (void)sink;
  return elapsed * 1e3;
}

std::uint64_t spin(std::uint64_t seed) {
  std::uint64_t x = seed | 1u;
  for (std::uint64_t i = 0; i < kSpinIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double spin_seconds(int threads) {
  // Seeds read through volatile so the spin cannot be folded at compile time.
  volatile std::uint64_t seeds[2] = {1, 2};
  std::uint64_t results[2] = {0, 0};
  const double start = now_s();
  if (threads == 1) {
    results[0] = spin(seeds[0]);
  } else {
    std::thread helper([&results, &seeds] { results[1] = spin(seeds[1]); });
    results[0] = spin(seeds[0]);
    helper.join();
  }
  const double elapsed = now_s() - start;
  volatile std::uint64_t sink = results[0] ^ results[1];
  (void)sink;
  return elapsed;
}

}  // namespace

HostCalibration host_calibration() {
  const std::vector<std::uint32_t> next = chase_cycle();
  std::vector<double> chase;
  std::vector<double> speedup;
  for (int r = 0; r < kRepeats; ++r) {
    chase.push_back(chase_ms(next));
    const double one = spin_seconds(1);
    const double two = spin_seconds(2);
    speedup.push_back(two > 0.0 ? 2.0 * one / two : 0.0);
  }
  return {coca::util::summarize(chase).p50,
          coca::util::summarize(speedup).p50};
}

}  // namespace perfbench

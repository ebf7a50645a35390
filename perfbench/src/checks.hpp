#pragma once
// Outside-in correctness checks.  They recompute the paper's per-slot P3
// constraints from what a run exports (the executed allocations captured by
// SimOptions::record_allocations and the billed Metrics records), so a
// library change that breaks a constraint fails the benchmark even when it
// runs faster.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "des/shard_runner.hpp"
#include "fault/injector.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// Tolerances, each ten times or more above the worst error a healthy run
/// shows (see README.md, "Correctness checks").
inline constexpr double kLoadSumRelTol = 1e-7;    ///< sum lambda_i vs lambda - shed
inline constexpr double kCapacityRelTol = 1e-12;  ///< lambda_i vs gamma*x_i*rate

/// Accumulated outcome of the checks over any number of runs.
struct CheckTally {
  std::uint64_t slots = 0;         ///< slots checked
  std::uint64_t failed_slots = 0;  ///< shed load or broke a constraint
  double worst_load_sum_rel = 0.0;
  double worst_capacity_rel = 0.0;  ///< largest relative overshoot (<= 0 ok)
  std::vector<std::string> errors;  ///< first few violations, human-readable

  bool ok() const { return errors.empty(); }
  void fail(std::string message);
};

/// Check every slot of one simulation run against P3:
///   * sum_i lambda_i = lambda - shed (relative, kLoadSumRelTol);
///   * 0 <= lambda_i <= gamma * active_i * service_rate(level_i), and
///     0 <= active_i <= servers_i of the fleet the slot ran on;
///   * billed energies and costs finite, brown energy >= 0, q >= 0.
/// A slot that shed load counts as failed without being an error.
/// `injector` (optional) supplies the degraded fleet of each slot.
void check_run(const coca::dc::Fleet& fleet,
               const coca::fault::Injector* injector,
               const coca::sim::SimResult& run,
               const std::vector<coca::dc::Allocation>& executed, double gamma,
               CheckTally& tally);

/// Byte-level equality of two replays: histogram bins and every serial
/// reduction (what "bit-identical at any thread count" promises).
bool bit_identical(const coca::des::ShardReplayResult& a,
                   const coca::des::ShardReplayResult& b);

}  // namespace perfbench

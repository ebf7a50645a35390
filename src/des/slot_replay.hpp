#pragma once
// Job-level replay of slot decisions: runs representative M/G/1/PS servers
// through the DES engine and measures the delay quantities the analytic
// model (Eq. 4) predicts.  This is the bridge between the fast slot-level
// simulation and the paper's event-based methodology.

#include <cstdint>
#include <vector>

#include "dc/power_model.hpp"

namespace coca::des {

/// Derive the RNG seed of stream `stream` from a replay seed, SplitMix64
/// style (the multi-chain GSD convention of mixing the base seed before
/// combining with the stream index).  Unlike the old `seed + stream`
/// arithmetic, adjacent replay seeds map to unrelated stream sets: with
/// addition, replays seeded s and s+1 reused each other's streams shifted by
/// one group, silently correlating measurements that are supposed to be
/// independent.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

struct PsMeasurement {
  double mean_jobs_in_system = 0.0;   ///< analytic: lambda/(x - lambda)
  double mean_response_seconds = 0.0; ///< analytic: 1/(x - lambda)
  std::size_t arrivals = 0;
  std::size_t completions = 0;
  /// Jobs still resident when the horizon closed.  Response-time statistics
  /// count completions only, so a nonzero in_flight flags the censoring bias
  /// (long jobs are the likeliest survivors) instead of hiding it.
  std::size_t in_flight = 0;
};

/// Simulate one M/G/1/PS server with arrival rate `lambda` (jobs/s) and
/// service rate `rate` (jobs/s) for `duration` simulated seconds.  Oracle for
/// the analytic M/G/1/PS formulas (`dc::mg1ps_*`) at job level.
PsMeasurement measure_ps_server(double lambda, double rate, double duration,
                                std::uint64_t seed = 9);

/// Replay an allocation's per-server operating points: one representative
/// server per group with load > 0.  Returns the fleet delay cost estimated
/// from the measurements (sum over groups of active * measured jobs in
/// system), comparable to dc::total_delay_jobs.  Group g draws from the
/// independent stream_seed(seed, g).  Oracle for the analytic fleet delay
/// cost (Eq. 4) at job level.
double replay_delay_jobs(const dc::Fleet& fleet, const dc::Allocation& alloc,
                         double duration, std::uint64_t seed = 9);

}  // namespace coca::des

#pragma once
// The deterministic fault schedule: every perturbation a simulation run will
// experience, resolved ahead of time from explicit events or a seeded
// generator.  COCA's guarantees are proved for a clean world (every group
// reports, every solve finishes, every input is fresh); the schedule is how
// the tree injects the dirty one — server-group outages, telemetry staleness,
// slot-solve deadline overruns and controller crash/restart — while keeping
// the bit-identical-across-thread-counts contract: a schedule is a pure
// function of its events (or its generator profile + seed), never of wall
// time, so two runs with the same schedule perturb identically.
//
// Fault classes (see DESIGN.md "Fault model & degraded-mode contract"):
//   (a) OutageEvent     — a fraction of a server group's machines vanish for
//                         [begin, end); GSD/ladder solve over the survivors.
//   (b) StalenessEvent  — a telemetry channel (lambda, price, on-site
//                         renewables) is delivered with a bounded lag of k
//                         slots; the controller consumes last-known-good
//                         (Wei & Neely: Lyapunov drift stays bounded under
//                         bounded staleness).  Billing always uses truth.
//   (c) DeadlineEvent   — the slot solve is budgeted to E objective
//                         evaluations; E = 0 means the solver never ran and
//                         the anytime fallback actuates.
//   (d) CrashEvent      — the controller process dies before the slot and is
//                         restored from its last coca-ckpt-v2 checkpoint
//                         (checkpoint_every controls the cadence; cadence 1
//                         loses no slots and must be bit-identical).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace coca::fault {

/// Telemetry channels that can go stale (the paper's lambda(t), w(t), r(t)).
enum class Channel { kLambda, kPrice, kRenewable };

/// `fraction` of group `group`'s servers are down for slots [begin, end).
/// Overlapping outages on one group take the maximum failed fraction.
struct OutageEvent {
  std::size_t group = 0;
  std::size_t begin = 0;
  std::size_t end = 0;     ///< exclusive; recovery at slot `end`
  double fraction = 1.0;   ///< 1.0 = whole group dark
};

/// `channel` readings arrive `lag` slots late during [begin, end): the
/// controller plans with the value observed at t - lag (clamped to slot 0).
struct StalenessEvent {
  Channel channel = Channel::kLambda;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t lag = 1;
};

/// The slot solve may spend at most `max_evaluations` P3 objective
/// evaluations during [begin, end).  0 = the deadline already passed when the
/// solver would have started (skip the solve, actuate the fallback).
struct DeadlineEvent {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::int64_t max_evaluations = 0;
};

/// Controller crash before slot `slot`: state rolls back to the most recent
/// checkpoint (see Schedule::checkpoint_every).
struct CrashEvent {
  std::size_t slot = 0;
};

/// Seeded generator profile for bench sweeps: outages arrive per group as a
/// Bernoulli(outage_rate) process with geometric-ish exponential durations,
/// and every channel runs `staleness_lag` slots behind for the whole horizon.
struct Profile {
  double outage_rate = 0.0;        ///< per-group per-slot outage probability
  double mean_outage_slots = 6.0;  ///< mean outage duration (exponential)
  double outage_fraction = 1.0;    ///< servers lost per outage
  std::size_t staleness_lag = 0;   ///< uniform lag on all channels (0 = fresh)
  std::uint64_t seed = 1;
};

class Schedule {
 public:
  std::vector<OutageEvent> outages;
  std::vector<StalenessEvent> staleness;
  std::vector<DeadlineEvent> deadlines;
  std::vector<CrashEvent> crashes;
  /// Checkpoint cadence in slots (the injector asks for a checkpoint at every
  /// t % checkpoint_every == 0).  Cadence 1 makes crash/restore lossless.
  std::size_t checkpoint_every = 1;
  /// Delay-jobs accounting for shed load: each shed req/s counts as this many
  /// jobs resident in the system for the slot (Little's-law convention; the
  /// shed delay cost is beta * shed_jobs_per_rps * shed_lambda * slot_hours).
  double shed_jobs_per_rps = 1.0;

  /// True when the schedule perturbs nothing — the simulator's fault path
  /// must then be byte-identical to a run with no schedule attached.
  bool empty() const {
    return outages.empty() && staleness.empty() && deadlines.empty() &&
           crashes.empty();
  }

  /// Throws std::invalid_argument on malformed events (bad intervals,
  /// out-of-range groups, fractions outside [0, 1], zero cadence) or a
  /// negative or non-finite shed_jobs_per_rps.
  void validate(std::size_t group_count, std::size_t slots) const;

  /// Deterministic generation from a profile: group g's outage process draws
  /// from an independent stream split off `profile.seed`, so the schedule is
  /// a pure function of (profile, group_count, slots).
  static Schedule generate(const Profile& profile, std::size_t group_count,
                           std::size_t slots);
};

}  // namespace coca::fault

#pragma once
// The year-scale slot simulator: drives any SlotController through an
// Environment, re-balances the *actual* workload over the planned capacity
// (what a runtime load balancer does) and bills it, charges switching
// energy, and feeds the controller its post-slot observations (the realized
// off-site renewables).

#include <vector>

#include "core/controller.hpp"
#include "dc/switching.hpp"
#include "fault/injector.hpp"
#include "obs/exposition.hpp"
#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "sim/environment.hpp"
#include "sim/metrics.hpp"

namespace coca::sim {

struct SimOptions {
  dc::SwitchingModel switching;  ///< default: free switching
  /// Optional per-slot trace sink (see obs/trace.hpp).  One record is
  /// appended per slot, in slot order; every field except solve_ms is
  /// deterministic.  Accepts the in-memory SlotTraceWriter or the background
  /// AsyncTraceSink (obs/async_sink.hpp).  Parallel sweeps give each point
  /// its own sink.
  obs::TraceSink* trace = nullptr;
  /// Optional capture of the *executed* allocation of every slot (after
  /// runtime rebalancing and any infeasibility fallback), in slot order —
  /// the decision sequence des::ShardRunner replays at request level.
  std::vector<dc::Allocation>* record_allocations = nullptr;
  /// Optional deterministic fault schedule (see fault/schedule.hpp).  When
  /// null or empty, the run is byte-identical to a fault-free simulation.
  const fault::Schedule* faults = nullptr;
  /// Optional runtime health plane (obs/health.hpp): every slot's trace
  /// record — built even when `trace` is null — is evaluated against the
  /// watchdog rule set.  Strictly read-only: attaching a monitor never
  /// changes a single decision or billed number (pass-through pinned by
  /// tests/obs_health_test.cpp).
  obs::HealthMonitor* health = nullptr;
  /// Optional Prometheus exposition (obs/exposition.hpp): the installed
  /// global metrics registry is snapshotted and written on the exporter's
  /// slot cadence.  No-op when no global registry is installed.
  obs::Exporter* exporter = nullptr;
};

struct SimResult {
  Metrics metrics;
  std::size_t infeasible_slots = 0;  ///< slots needing the emergency fallback
  /// Fault-injection counters (all zero on clean runs); per-slot detail
  /// lives in the metrics records and the slot trace.
  fault::FaultStats faults;
};

/// Run `controller` over all slots of `env`.  `weights` provides the model
/// parameters (beta, gamma, pue, slot_hours) used for *billing*; V and q are
/// forced to (1, 0) so billed costs are true costs.
SimResult run_simulation(const dc::Fleet& fleet, const Environment& env,
                         core::SlotController& controller,
                         const opt::SlotWeights& weights,
                         const SimOptions& options = {});

}  // namespace coca::sim

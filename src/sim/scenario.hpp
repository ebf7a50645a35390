#pragma once
// Paper-default scenario assembly (Sec. 5.1).
//
// Builds the full evaluation setup the way the paper does, self-calibrating
// against the carbon-unaware baseline:
//   1. fleet: ~216 K heterogeneous servers (50 MW peak) in groups;
//   2. workload: FIU-like (default) or MSR-like trace, peak 1.1 M req/s
//      (~50% of fleet capacity);
//   3. electricity price: CAISO-like hourly trace;
//   4. run the carbon-unaware baseline once (without renewables) to measure
//      the reference annual facility energy C0 and brown usage E_unaware;
//   5. on-site renewables scaled to `onsite_fraction` (20%) of C0;
//   6. carbon budget = `budget_fraction` (92%) of E_unaware, split
//      `offsite_share` (40%) off-site PPAs / 60% RECs.
//
// The returned Scenario carries everything a bench or example needs.

#include <cstdint>

#include "dc/fleet.hpp"
#include "energy/budget.hpp"
#include "sim/environment.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace coca::sim {

enum class WorkloadKind { kFiuLike, kMsrLike };

struct ScenarioConfig {
  std::size_t hours = coca::workload::kHoursPerYear;
  dc::FleetConfig fleet{
      .total_servers = 216'000,
      .group_count = 40,  // year-long sweeps; Fig. 4 raises this to 200
      .generations = 4,
      .speed_spread = 0.18,
      .power_spread = 0.12,
  };
  WorkloadKind workload = WorkloadKind::kFiuLike;
  double peak_rate = 1.1e6;      ///< req/s (~50% of fleet capacity)
  double beta = 0.005;           ///< delay weight, $ per job-hour (see DESIGN.md)
  double gamma = 0.9;            ///< utilization cap
  double pue = 1.0;              ///< paper models server power only
  double slot_hours = 1.0;
  double alpha = 1.0;            ///< Eq. 10 capping aggressiveness
  double budget_fraction = 0.92; ///< budget vs carbon-unaware usage
  double onsite_fraction = 0.20; ///< on-site renewables vs reference energy
  double offsite_share = 0.40;   ///< off-site share of the budget (RECs: rest)
  std::uint64_t seed = 7;
};

struct Scenario {
  dc::Fleet fleet;
  Environment env;
  energy::CarbonBudget budget;
  opt::SlotWeights weights;        ///< beta/gamma/pue/slot_hours filled in
  // Calibration outputs carry their units in the type (util/units.hpp);
  // benches/tests unwrap at their reporting boundary.  The wrapped doubles
  // are the exact values the raw fields used to hold (the wrapper is a
  // bitwise-transparent strong typedef).
  units::KiloWattHours reference_energy_kwh;  ///< C0: unaware annual energy
  units::KiloWattHours unaware_brown_kwh;  ///< E_unaware: brown w/ onsite
  units::Usd unaware_cost;         ///< unaware annual cost w/ onsite
  ScenarioConfig config;

  /// z = Z / J (unscaled kWh) for COCA's queue update, which applies alpha.
  double rec_per_slot() const { return budget.rec_per_slot(); }
};

/// Build and self-calibrate the scenario (runs the carbon-unaware baseline
/// twice internally; a few hundred milliseconds at the default group count).
Scenario build_scenario(const ScenarioConfig& config = {});

/// Convenience: run the carbon-unaware baseline over an environment.
SimResult run_carbon_unaware(const dc::Fleet& fleet, const Environment& env,
                             const opt::SlotWeights& weights);

/// Convenience: run COCA with a constant V over the scenario.
SimResult run_coca_constant_v(const Scenario& scenario, double v);

/// Watchdog configuration derived from the scenario's envelope (see
/// obs/health.hpp for the rule set):
///   * b_max = max(y_max, alpha*(f_max + z)) with y_max the peak facility
///     energy per slot (peak kW * PUE * slot hours), f_max the largest
///     off-site delivery and z the per-slot REC block — the largest possible
///     one-slot carbon-queue move (Eq. 17);
///   * g_max = w_max*y_max + beta*N*gamma/(1-gamma)*slot_hours — peak
///     electricity spend plus the delay cost of every server running at the
///     gamma utilization cap (M/G/1/PS occupancy gamma/(1-gamma) per server);
///   * zeta = w_max: in the P3 price V*w + q the queue dominates every
///     electricity price once q > V*w_max, so a gap above that scale means
///     the deficit is no longer price-controllable.
/// A clean COCA run never trips these (the Theorem 2(a) bound holds by
/// construction); a seeded violation does — tests/obs_health_test.cpp.
obs::HealthConfig default_health_config(const Scenario& scenario);

}  // namespace coca::sim

// Annual carbon-neutral operations report — the "operator's view" example.
//
// Reproduces the paper's end-to-end methodology on a full budgeting period:
//   1. build the default scenario (fleet, traces, 92% carbon budget);
//   2. calibrate the cost-carbon parameter V so neutrality holds (Sec. 4.3);
//   3. run COCA, the carbon-unaware baseline, PerfectHP and the offline OPT;
//   4. print a month-by-month operations report and the final carbon account,
//      including the end-of-period REC top-up the paper suggests for any
//      residual deficit (Sec. 4.3 discussion after Theorem 2).
//
// Usage: annual_report [hours] [groups]   (defaults: 4380 slots, 16 groups)
//
// Set COCA_TRACE_JSONL=<path> to also export the COCA run's per-slot JSONL
// trace (schema coca-slot-trace-v1) with the span profile as its footer
// line.

#include <cstdlib>
#include <iostream>

#include "baselines/perfect_hp.hpp"
#include "baselines/offline_opt.hpp"
#include "core/calibration.hpp"
#include "core/coca_controller.hpp"
#include "energy/rec_ledger.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "util/table.hpp"

namespace {

/// The calibrated COCA run, traced to `path`.  Same controller configuration
/// as sim::run_coca_constant_v, plus the trace sink and span profiler.
coca::sim::SimResult run_coca_traced(const coca::sim::Scenario& scenario,
                                     double v, const char* path) {
  using namespace coca;
  obs::SpanProfiler profiler;
  const obs::SpanProfilerScope profile_scope(&profiler);
  core::CocaConfig config;
  config.weights = scenario.weights;
  config.schedule = core::VSchedule::constant(v);
  config.alpha = scenario.budget.alpha();
  config.rec_per_slot = scenario.budget.rec_per_slot();
  core::CocaController controller(scenario.fleet, config);
  sim::SimOptions options;
  obs::SlotTraceWriter writer;
  options.trace = &writer;
  const auto result = sim::run_simulation(scenario.fleet, scenario.env,
                                          controller, scenario.weights,
                                          options);
  writer.set_footer(profiler.to_json());
  writer.write_jsonl_file(path);
  std::cout << "wrote slot trace " << path << " (" << writer.size()
            << " slots, synchronous)\n\n";
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coca;

  sim::ScenarioConfig config;
  config.hours = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4380;
  config.fleet.group_count = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 16;

  std::cout << "=== COCA annual operations report ===\n";
  const auto scenario = sim::build_scenario(config);
  std::cout << "fleet: " << scenario.fleet.total_servers() << " servers, peak "
            << scenario.fleet.peak_power_kw() / 1000.0 << " MW; horizon "
            << config.hours << " h\n"
            << "budget: " << scenario.budget.total_allowance() / 1000.0
            << " MWh (offsite " << scenario.budget.offsite().total() / 1000.0
            << " MWh + RECs " << scenario.budget.recs_kwh() / 1000.0
            << " MWh)\n\n";

  // Step 2: trial-and-error V, automated.
  const auto v_star = core::calibrate_v(
      [&](double v) {
        return sim::run_coca_constant_v(scenario, v).metrics.total_brown_kwh();
      },
      scenario.budget.total_allowance(),
      {.v_lo = 1.0, .v_hi = 1e10, .max_runs = 14});
  std::cout << "calibrated V = " << v_star.v << " (target met: "
            << (v_star.target_met ? "yes" : "no") << ", " << v_star.runs
            << " trial runs)\n\n";

  // Step 3: all four controllers (the COCA run traced when requested).
  const char* trace_path = std::getenv("COCA_TRACE_JSONL");
  const auto coca = (trace_path != nullptr && trace_path[0] != '\0')
                        ? run_coca_traced(scenario, v_star.v, trace_path)
                        : sim::run_coca_constant_v(scenario, v_star.v);
  const auto unaware = sim::run_carbon_unaware(scenario.fleet, scenario.env,
                                               scenario.weights);
  baselines::PerfectHpController hp(scenario.fleet, scenario.weights,
                                    scenario.env.workload, scenario.budget);
  const auto perfect_hp = sim::run_simulation(scenario.fleet, scenario.env, hp,
                                              scenario.weights);
  const auto opt = baselines::solve_offline_opt(
      scenario.fleet, scenario.env.workload.values(),
      scenario.env.onsite_kw.values(), scenario.env.price.values(),
      scenario.weights, scenario.budget.total_allowance());

  util::Table summary({"controller", "avg $/h", "electricity ($)", "delay ($)",
                       "brown (MWh)", "vs budget (%)"});
  auto add = [&](const std::string& name, double avg, double elec, double delay,
                 double brown) {
    summary.add_row({name, avg, elec, delay, brown / 1000.0,
                     100.0 * brown / scenario.budget.total_allowance()});
  };
  add("COCA (calibrated)", coca.metrics.average_cost(),
      coca.metrics.total_electricity_cost(), coca.metrics.total_delay_cost(),
      coca.metrics.total_brown_kwh());
  add("carbon-unaware", unaware.metrics.average_cost(),
      unaware.metrics.total_electricity_cost(),
      unaware.metrics.total_delay_cost(), unaware.metrics.total_brown_kwh());
  add("PerfectHP", perfect_hp.metrics.average_cost(),
      perfect_hp.metrics.total_electricity_cost(),
      perfect_hp.metrics.total_delay_cost(),
      perfect_hp.metrics.total_brown_kwh());
  add("OPT (offline)",
      opt.total_cost.value() / static_cast<double>(config.hours),
      0.0, 0.0, opt.total_brown_kwh.value());
  summary.print(std::cout);

  // Month-by-month view of the COCA run.
  std::cout << "\n--- COCA month-by-month ---\n";
  util::Table monthly({"month", "avg $/h", "brown (MWh)", "allowance (MWh)",
                       "queue end (MWh)", "active servers (avg)"});
  const std::size_t month = 730;
  for (std::size_t start = 0; start + 1 < config.hours; start += month) {
    const std::size_t end = std::min<std::size_t>(config.hours, start + month);
    double cost = 0.0, brown = 0.0, allowance = 0.0, active = 0.0;
    for (std::size_t t = start; t < end; ++t) {
      const auto& slot = coca.metrics.slots()[t];
      cost += slot.total_cost.value();
      brown += slot.brown_kwh.value();
      allowance += scenario.budget.slot_allowance(t);
      active += slot.active_servers;
    }
    const double len = static_cast<double>(end - start);
    monthly.add_row({static_cast<double>(start / month + 1), cost / len,
                     brown / 1000.0, allowance / 1000.0,
                     coca.metrics.slots()[end - 1].queue_length / 1000.0,
                     active / len});
  }
  monthly.print(std::cout);

  // Step 4: final carbon account with an end-of-period REC top-up.
  energy::CarbonAccount account{coca.metrics.total_brown_kwh(),
                                scenario.budget.offsite().total(),
                                scenario.budget.recs_kwh()};
  std::cout << "\n--- carbon account ---\n"
            << "brown energy:        " << account.brown_kwh / 1000.0 << " MWh\n"
            << "off-site renewables: " << account.offsite_kwh / 1000.0 << " MWh\n"
            << "RECs (pre-purchased): " << account.rec_kwh / 1000.0 << " MWh\n";
  if (account.neutral(scenario.budget.alpha())) {
    std::cout << "carbon neutrality: ACHIEVED with "
              << -account.excess(scenario.budget.alpha()) / 1000.0
              << " MWh of allowance to spare\n";
  } else {
    // The paper: "data centers may purchase additional RECs at the end of a
    // budgeting period to offset the remaining electricity usage."
    energy::RecLedger topup;
    const double residual = account.excess(scenario.budget.alpha());
    topup.purchase(residual);
    topup.retire(residual);
    std::cout << "carbon neutrality: residual " << residual / 1000.0
              << " MWh offset by an end-of-period REC top-up (ledger retired "
              << topup.retired_total() / 1000.0 << " MWh)\n";
  }
  return 0;
}

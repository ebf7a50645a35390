#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>

#include "checks.hpp"
#include "core/calibration.hpp"
#include "core/coca_controller.hpp"
#include "des/shard_runner.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "obs/async_sink.hpp"
#include "obs/exposition.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "probes.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

using namespace coca;

// ---- Workload shapes (README.md explains each choice) ----------------------

/// Set-up is repeated and its median reported: set-ups repeat until
/// kSetupMinSeconds have passed, at most kSetupMaxRepeats times (the
/// year-scale ones, ~1.4 s, run once per process; the 0.05-0.1 s ones ten
/// times).
constexpr std::size_t kSetupMaxRepeats = 10;
constexpr double kSetupMinSeconds = 1.0;
/// year_ladder's carbon-neutral V at the default seed, fixed as a constant
/// for the workloads that run COCA at one V: calibrating per run would put
/// nine year-runs into their set-up.
constexpr double kFixedV = 22067340.69084584;
const core::VCalibrationOptions kCalibration{
    .v_lo = 1.0, .v_hi = 1e10, .max_runs = 14};

constexpr std::size_t kGsdGroups = 200;   // Fig. 4 granularity
constexpr std::size_t kGsdHours = 120;
constexpr int kGsdIterations = 500;       // Sec. 5.2.3: one chain, 500 its.

constexpr std::size_t kDesHours = 480;
constexpr double kDesSlotSeconds = 150.0;  // the fig_des_tail setting
constexpr std::size_t kDesThreads = 2;

constexpr std::size_t kCrashEvery = 97;
constexpr std::size_t kCheckpointEvery = 24;
constexpr std::size_t kExportEvery = 24;
struct FaultPoint {
  double outage_rate;
  std::size_t staleness_lag;
};
constexpr FaultPoint kFaultGrid[] = {{0.01, 0}, {0.01, 4}, {0.03, 0}, {0.03, 4}};
/// The profile the traced run re-runs with the telemetry plane detached.
constexpr std::size_t kPlaneProfile = 3;

// ---- Metric tables: the order and units BENCHMARK.json declares ------------

struct Spec {
  const char* name;
  const char* unit;
};

constexpr Spec kGated[] = {
    {"setup_s", "s"},        {"ops_per_s", "op/s"},
    {"peak_rss_mb", "MiB"},  {"cost_usd", "USD"},
    {"brown_mwh", "MWh"},
};

constexpr Spec kLayers[] = {
    {"host.ref_ms", "ms"},
    {"host.parallelism", "x"},
    {"bench.trace_overhead", "ratio"},
    {"bench.unit_s", "s/unit"},
    {"sim.scenario_s", "s"},
    {"sim.self_s", "s/unit"},
    {"sim.fallback_share", "share"},
    {"core.plan_s", "s/unit"},
    {"core.plan_calls", "count/unit"},
    {"core.plan_p50_us", "us"},
    {"core.plan_p95_us", "us"},
    {"core.plan_p99_us", "us"},
    {"core.observe_s", "s/unit"},
    {"core.checkpoint_s", "s/unit"},
    {"core.checkpoints", "count/unit"},
    {"core.restore_s", "s/unit"},
    {"core.restores", "count/unit"},
    {"core.calibration_runs", "count/unit"},
    {"core.calibration_s", "s/unit"},
    {"opt.ladder_solves", "count/unit"},
    {"opt.gsd_evaluations", "count/unit"},
    {"opt.gsd_accept_ratio", "share"},
    {"opt.gsd_evals_per_s", "1/s"},
    {"proc.cpu_s", "s/unit"},
    {"proc.cpu_per_wall", "ratio"},
    {"proc.vcsw_per_slot", "count/slot"},
    {"util.pool_tasks", "count/unit"},
    {"des.replay_s", "s/unit"},
    {"des.requests", "count/unit"},
    {"des.completions", "count/unit"},
    {"des.in_flight", "count/unit"},
    {"des.requests_per_s", "req/s"},
    {"des.sojourn_p99_s", "s"},
    {"des.parallel_eff", "ratio"},
    {"des.record_s", "s"},
    {"fault.degraded_slots", "count/unit"},
    {"fault.stale_inputs", "count/unit"},
    {"fault.crash_restarts", "count/unit"},
    {"fault.shed_slots", "count/unit"},
    {"fault.fallbacks", "count/unit"},
    {"fault.fleet_swaps", "count/unit"},
    {"fault.schedule_s", "s"},
    {"obs.sink_s", "s/unit"},
    {"obs.records", "count/unit"},
    {"obs.health_lines", "count/unit"},
    {"obs.spans", "count/unit"},
    {"obs.exporter_writes", "count/unit"},
    {"obs.trace_dropped", "count/unit"},
    {"obs.sink_high_water", "count"},
    {"obs.health_warn", "count/unit"},
    {"obs.health_critical", "count/unit"},
    {"obs.plane_share", "share"},
};

using Values = std::map<std::string, double>;

template <std::size_t N>
std::vector<Metric> emit(const Spec (&specs)[N], const Values& values) {
  std::vector<Metric> out;
  for (const Spec& spec : specs) {
    const auto found = values.find(spec.name);
    out.push_back({spec.name, found == values.end() ? 0.0 : found->second,
                   spec.unit});
  }
  return out;
}

std::string format(const char* fmt, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, fmt, value);
  return buffer;
}

/// A workload-specific figure printed by name and unit before the result.
std::string figure(const std::string& name, double value,
                   const std::string& unit) {
  return name + " = " + format("%.6g", value) + " " + unit;
}

// ---- Seeds -----------------------------------------------------------------

struct Seeds {
  std::uint64_t scenario;
  std::uint64_t fault;
  std::uint64_t des;
};

/// --seed 1 is the library's own defaults (ScenarioConfig::seed 7,
/// fault::Profile::seed 1, ShardReplayConfig::seed 9); every other seed
/// shifts all three.
Seeds seeds_for(std::uint64_t seed) { return {seed + 6, seed, seed + 8}; }

core::CocaConfig coca_config(const sim::Scenario& scenario, double v) {
  core::CocaConfig config;
  config.weights = scenario.weights;
  config.schedule = core::VSchedule::constant(v);
  config.alpha = scenario.budget.alpha();
  config.rec_per_slot = scenario.budget.rec_per_slot();
  return config;
}

// ---- Timed passes ----------------------------------------------------------

/// One timed pass over whole units of work.  The untraced pass is what the
/// gated metrics read; the traced pass repeats the same number of units with
/// the decorators and a metrics registry attached.
struct Pass {
  explicit Pass(bool is_traced) : traced(is_traced) {}

  bool traced;
  int units = 0;
  double wall_s = 0.0;   ///< timed wall, outside-in check time excluded
  double check_s = 0.0;  ///< time spent in checks between timed calls
  std::uint64_t slots = 0;
  /// Operations/s of each timed call, one row per unit.
  std::vector<std::vector<double>> call_rates;
  std::vector<double> unit_wall_s;
  Usage before;
  Usage after;
  ControllerCalls controller;
  SinkCalls sink;
  Values counts;           ///< workload sums (SimResult, plane registries)
  obs::Registry registry;  ///< the global registry while a traced pass runs

  /// Wrap `inner` in a timing decorator when the pass asks for it.
  core::SlotController& controller_for(core::SlotController& inner,
                                       std::optional<TimedController>& slot,
                                       bool always = false) {
    if (!traced && !always) return inner;
    return slot.emplace(inner, controller);
  }

  double count(const char* name) const {
    const auto found = counts.find(name);
    return found == counts.end() ? 0.0 : found->second;
  }

  /// A registry counter: the traced pass's own registry plus the per-run
  /// registries fault_ops installs (summed into `counts`).
  double registry_count(const char* name) const {
    return static_cast<double>(registry.counter_value(name)) + count(name);
  }

  void account(const sim::SimResult& run) {
    counts["sim.infeasible_slots"] += static_cast<double>(run.infeasible_slots);
    counts["fault.degraded_slots"] +=
        static_cast<double>(run.faults.degraded_slots);
    counts["fault.stale_inputs"] += static_cast<double>(run.faults.stale_inputs);
    counts["fault.crash_restarts"] +=
        static_cast<double>(run.faults.crash_restarts);
    counts["fault.shed_slots"] += static_cast<double>(run.faults.shed_slots);
    counts["fault.fallbacks"] +=
        static_cast<double>(run.faults.fallback_activations);
  }

  /// Time one simulation call that processes `call_slots` slots (for the
  /// slot workloads an operation is a slot).
  template <typename Fn>
  auto timed(std::uint64_t call_slots, Fn&& fn) {
    const double start = now_s();
    auto result = fn();
    call_rates.back().push_back(static_cast<double>(call_slots) /
                                (now_s() - start));
    slots += call_slots;
    return result;
  }

  /// Time `fn` as check time (excluded from the timed wall).
  template <typename Fn>
  void check(Fn&& fn) {
    const double start = now_s();
    fn();
    check_s += now_s() - start;
  }
};

/// Run whole units until `seconds` of wall have passed (at least one), or
/// exactly `units` units when that is positive.
void run_pass(Pass& pass, double seconds, int units,
              const std::function<void(Pass&)>& unit) {
  std::optional<obs::GlobalRegistryScope> scope;
  if (pass.traced) scope.emplace(&pass.registry);
  pass.before = Usage::now();
  const double start = now_s();
  while (units > 0 ? pass.units < units
                   : (pass.units == 0 || now_s() - start < seconds)) {
    const double unit_start = now_s();
    const double checks_before = pass.check_s;
    pass.call_rates.emplace_back();
    unit(pass);
    pass.unit_wall_s.push_back(now_s() - unit_start -
                               (pass.check_s - checks_before));
    ++pass.units;
  }
  pass.wall_s = now_s() - start - pass.check_s;
  pass.after = Usage::now();
}

/// Length of the untraced pass.  A traced run splits --seconds between the
/// untraced pass and a traced pass of the same unit count, so it lasts about
/// as long as an untraced run.
double plain_seconds(const Options& options) {
  return options.trace ? 0.5 * options.seconds : options.seconds;
}

/// Run `setup` repeatedly (it keeps its last result) and return the median
/// wall time of one set-up; `notes` gets the sample's size and range.
double repeat_setup(const std::function<void()>& setup,
                    std::vector<std::string>& notes) {
  std::vector<double> times;
  double total = 0.0;
  while (total < kSetupMinSeconds && times.size() < kSetupMaxRepeats) {
    const double start = now_s();
    setup();
    times.push_back(now_s() - start);
    total += times.back();
  }
  std::string line = "setup_s: median of " + std::to_string(times.size()) +
                     " set-ups:";
  for (const double t : times) {
    line += ' ';
    line += format("%.4g", t);
  }
  notes.push_back(line);
  return util::summarize(times).p50;
}

/// The readings the gated rate is the median of: one per call of a unit.
/// Every unit repeats the same calls, and each call keeps its fastest
/// reading over the units, because host contention only ever slows a call
/// down.  The median over a unit's calls then reads past a burst during a
/// few of them.
std::vector<double> best_call_rates(const Pass& plain) {
  std::vector<double> best = plain.call_rates.front();
  for (const std::vector<double>& rates : plain.call_rates) {
    for (std::size_t i = 0; i < best.size() && i < rates.size(); ++i) {
      best[i] = std::max(best[i], rates[i]);
    }
  }
  return best;
}

/// How the gated rate was read from the untraced pass.
std::string rate_note(const Pass& plain, const std::vector<double>& best) {
  const auto [lo, hi] = std::minmax_element(best.begin(), best.end());
  return "ops_per_s: median of " + std::to_string(best.size()) +
         " timed calls, best of " + std::to_string(plain.call_rates.size()) +
         " unit(s) each (min " + format("%.6g", *lo) + ", max " +
         format("%.6g", *hi) + ")";
}

/// Everything a workload function hands back to the common reporting code.
struct Report {
  Outcome outcome;
  Values gated;
  Values layer;
  CheckTally tally;

  void error(const std::string& message) {
    outcome.correct = false;
    outcome.notes.push_back("CHECK FAILED: " + message);
  }

  /// Gate the untraced pass's rate as ops_per_s and print it under the
  /// workload's own name for it (slots_per_s or requests_per_s).
  void gate_rate(const Pass& plain, const char* name, const char* unit) {
    const std::vector<double> best = best_call_rates(plain);
    gated["ops_per_s"] = util::summarize(best).p50;
    outcome.notes.push_back(rate_note(plain, best));
    outcome.notes.push_back(figure(name, gated["ops_per_s"], unit));
  }
};

/// Per-layer metrics every slot workload derives the same way.
void slot_layers(const Pass& traced, Values& layer) {
  const double units = static_cast<double>(traced.units);
  const ControllerCalls& calls = traced.controller;
  std::vector<double> plan_us;
  plan_us.reserve(calls.plan_s.size());
  for (const double s : calls.plan_s) plan_us.push_back(s * 1e6);
  const double plan_s = calls.plan_total_s();
  layer["core.plan_s"] = plan_s / units;
  layer["core.plan_calls"] = static_cast<double>(calls.plan_s.size()) / units;
  const util::Summary plan_summary = util::summarize(plan_us);
  layer["core.plan_p50_us"] = plan_summary.p50;
  layer["core.plan_p95_us"] = plan_summary.p95;
  layer["core.plan_p99_us"] = plan_summary.p99;
  layer["core.observe_s"] = calls.observe_s / units;
  layer["core.checkpoint_s"] = calls.checkpoint_s / units;
  layer["core.checkpoints"] = static_cast<double>(calls.checkpoints) / units;
  layer["core.restore_s"] = calls.restore_s / units;
  layer["core.restores"] = static_cast<double>(calls.restores) / units;
  layer["fault.fleet_swaps"] = static_cast<double>(calls.fleet_swaps) / units;
  const double evaluations = static_cast<double>(calls.gsd_evaluations);
  layer["opt.gsd_evaluations"] = evaluations / units;
  layer["opt.gsd_accept_ratio"] =
      evaluations > 0.0
          ? static_cast<double>(calls.gsd_accepted) / evaluations
          : 0.0;
  layer["opt.gsd_evals_per_s"] =
      evaluations > 0.0 && plan_s > 0.0 ? evaluations / plan_s : 0.0;
  layer["opt.ladder_solves"] = traced.registry_count("ladder.solves") / units;
  layer["obs.sink_s"] = traced.sink.seconds / units;
  layer["obs.records"] = static_cast<double>(traced.sink.records) / units;
  layer["obs.health_lines"] = static_cast<double>(traced.sink.lines) / units;
  layer["sim.self_s"] =
      (traced.wall_s - calls.total_s() - traced.sink.seconds) / units;
  layer["sim.fallback_share"] = traced.count("sim.infeasible_slots") /
                                static_cast<double>(traced.slots);
  for (const char* name :
       {"fault.degraded_slots", "fault.stale_inputs", "fault.crash_restarts",
        "fault.shed_slots", "fault.fallbacks"}) {
    layer[name] = traced.count(name) / units;
  }
}

/// Layer metrics every workload reports: process counters of the untraced
/// timed section, the pool, and the tracing overhead.
void common_layers(const Pass& plain, const Pass& traced, Values& layer) {
  const double cpu_s =
      plain.after.cpu_s - plain.before.cpu_s - plain.check_s;
  layer["proc.cpu_s"] = cpu_s / static_cast<double>(plain.units);
  layer["proc.cpu_per_wall"] = cpu_s / plain.wall_s;
  layer["proc.vcsw_per_slot"] =
      static_cast<double>(plain.after.voluntary_switches -
                          plain.before.voluntary_switches) /
      static_cast<double>(plain.slots);
  layer["util.pool_tasks"] = traced.registry_count("pool.tasks_submitted") /
                             static_cast<double>(traced.units);
  const double unit_s = traced.wall_s / static_cast<double>(traced.units);
  layer["bench.unit_s"] = unit_s;
  layer["bench.trace_overhead"] =
      unit_s / (plain.wall_s / static_cast<double>(plain.units)) - 1.0;
}

// ---- year_ladder -----------------------------------------------------------

void year_ladder(const Options& options, Report& report) {
  sim::ScenarioConfig config;
  config.seed = seeds_for(options.seed).scenario;
  std::optional<sim::Scenario> built;
  report.gated["setup_s"] = repeat_setup(
      [&] { built.emplace(sim::build_scenario(config)); },
      report.outcome.notes);
  const sim::Scenario& scenario = *built;
  const double allowance = scenario.budget.total_allowance();

  struct Result {
    double cost;
    double brown;
    double v;
    int runs;
    bool operator==(const Result&) const = default;
  };
  std::optional<Result> first;

  const auto simulate = [&](Pass& pass, double v) {
    core::CocaController coca(scenario.fleet, coca_config(scenario, v));
    std::optional<TimedController> timed;
    core::SlotController& controller = pass.controller_for(coca, timed);
    std::vector<dc::Allocation> executed;
    executed.reserve(scenario.env.slots());
    sim::SimOptions sim_options;
    sim_options.record_allocations = &executed;
    sim::SimResult run = pass.timed(scenario.env.slots(), [&] {
      return sim::run_simulation(scenario.fleet, scenario.env, controller,
                                 scenario.weights, sim_options);
    });
    pass.account(run);
    pass.check([&] {
      check_run(scenario.fleet, nullptr, run, executed,
                scenario.weights.gamma, report.tally);
    });
    return run;
  };

  const auto unit = [&](Pass& pass) {
    const double start = now_s();
    const double checks_before = pass.check_s;
    const core::VCalibrationResult calibrated = core::calibrate_v(
        [&](double v) { return simulate(pass, v).metrics.total_brown_kwh(); },
        allowance, kCalibration);
    pass.counts["core.calibration_s"] +=
        now_s() - start - (pass.check_s - checks_before);
    pass.counts["core.calibration_runs"] += calibrated.runs;
    const sim::SimResult run = simulate(pass, calibrated.v);
    const Result result{run.metrics.total_cost(),
                        run.metrics.total_brown_kwh(), calibrated.v,
                        calibrated.runs};
    pass.check([&] {
      if (!calibrated.target_met || !(result.brown <= allowance)) {
        report.error("calibrated run not carbon-neutral: brown " +
                     format("%.17g", result.brown) + " kWh, allowance " +
                     format("%.17g", allowance) + " kWh");
      }
      if (!first) first = result;
      else if (!(*first == result)) report.error("unit results differ");
    });
  };

  Pass plain(false);
  run_pass(plain, plain_seconds(options), 0, unit);
  report.gate_rate(plain, "slots_per_s", "slot/s");
  report.gated["cost_usd"] = first->cost;
  report.gated["brown_mwh"] = first->brown / 1000.0;
  auto& notes = report.outcome.notes;
  notes.push_back("calibrated V = " + format("%.17g", first->v) + " (" +
                  std::to_string(first->runs) + " calibration runs), brown " +
                  format("%.6f", first->brown / 1000.0) + " MWh <= allowance " +
                  format("%.6f", allowance / 1000.0) + " MWh");

  if (!options.trace) return;
  Pass traced(true);
  run_pass(traced, 0.0, plain.units, unit);
  Values& layer = report.layer;
  slot_layers(traced, layer);
  common_layers(plain, traced, layer);
  layer["sim.scenario_s"] = report.gated["setup_s"];
  const double units = static_cast<double>(traced.units);
  layer["core.calibration_runs"] = traced.counts["core.calibration_runs"] / units;
  layer["core.calibration_s"] = traced.counts["core.calibration_s"] / units;
}

// ---- gsd_fleet -------------------------------------------------------------

void gsd_fleet(const Options& options, Report& report) {
  sim::ScenarioConfig config;
  config.seed = seeds_for(options.seed).scenario;
  config.hours = kGsdHours;
  config.fleet.group_count = kGsdGroups;
  std::optional<sim::Scenario> built;
  report.gated["setup_s"] = repeat_setup(
      [&] { built.emplace(sim::build_scenario(config)); },
      report.outcome.notes);
  const sim::Scenario& scenario = *built;
  core::CocaConfig coca = coca_config(scenario, kFixedV);
  coca.engine = core::P3Engine::kGsd;
  coca.gsd.iterations = kGsdIterations;
  coca.gsd.chains = 1;
  coca.gsd.threads = 1;

  std::optional<std::pair<double, double>> first;  // cost, brown
  const auto unit = [&](Pass& pass) {
    core::CocaController controller(scenario.fleet, coca);
    std::optional<TimedController> timed;
    std::vector<dc::Allocation> executed;
    executed.reserve(scenario.env.slots());
    sim::SimOptions sim_options;
    sim_options.record_allocations = &executed;
    // Decision latency is this workload's user-facing figure, so plan() is
    // timed in the untraced pass as well (two clock reads per ~13 ms call).
    core::SlotController& decorated =
        pass.controller_for(controller, timed, /*always=*/true);
    const sim::SimResult run = pass.timed(scenario.env.slots(), [&] {
      return sim::run_simulation(scenario.fleet, scenario.env, decorated,
                                 scenario.weights, sim_options);
    });
    pass.account(run);
    pass.check([&] {
      check_run(scenario.fleet, nullptr, run, executed,
                scenario.weights.gamma, report.tally);
      const std::pair<double, double> result{run.metrics.total_cost(),
                                             run.metrics.total_brown_kwh()};
      if (!first) first = result;
      else if (*first != result) report.error("unit results differ");
    });
  };

  Pass plain(false);
  run_pass(plain, plain_seconds(options), 0, unit);
  report.gate_rate(plain, "slots_per_s", "slot/s");
  report.gated["cost_usd"] = first->first;
  report.gated["brown_mwh"] = first->second / 1000.0;
  std::vector<double> decide_ms;
  for (const double s : plain.controller.plan_s) decide_ms.push_back(s * 1e3);
  const util::Summary decide = util::summarize(decide_ms);
  const auto beyond_p95 =
      std::count_if(decide_ms.begin(), decide_ms.end(),
                    [&decide](double ms) { return ms > decide.p95; });
  auto& notes = report.outcome.notes;
  notes.push_back(figure("decide_p50_ms", decide.p50, "ms"));
  notes.push_back(figure("decide_p95_ms", decide.p95, "ms") + " (" +
                  std::to_string(decide.count) + " decisions, " +
                  std::to_string(beyond_p95) + " beyond p95)");

  if (!options.trace) return;
  Pass traced(true);
  run_pass(traced, 0.0, plain.units, unit);
  slot_layers(traced, report.layer);
  common_layers(plain, traced, report.layer);
  report.layer["sim.scenario_s"] = report.gated["setup_s"];
}

// ---- des_replay ------------------------------------------------------------

void des_replay(const Options& options, Report& report) {
  const Seeds seeds = seeds_for(options.seed);
  sim::ScenarioConfig config;
  config.seed = seeds.scenario;
  config.hours = kDesHours;
  des::ShardReplayConfig replay_config;
  replay_config.shards = config.fleet.group_count;
  replay_config.threads = kDesThreads;
  replay_config.seconds_per_slot = kDesSlotSeconds;
  replay_config.seed = seeds.des;

  std::optional<des::ShardRunner> runner;
  std::optional<sim::Scenario> built;
  std::optional<sim::SimResult> recorded;
  std::vector<dc::Allocation> executed;
  std::vector<double> scenario_s;
  std::vector<double> record_s;
  report.gated["setup_s"] = repeat_setup([&] {
    runner.reset();  // refers to the previous scenario's fleet
    double start = now_s();
    built.emplace(sim::build_scenario(config));
    scenario_s.push_back(now_s() - start);
    start = now_s();
    core::CocaController coca(built->fleet, coca_config(*built, kFixedV));
    executed.clear();
    sim::SimOptions sim_options;
    sim_options.record_allocations = &executed;
    recorded.emplace(sim::run_simulation(built->fleet, built->env, coca,
                                         built->weights, sim_options));
    record_s.push_back(now_s() - start);
    runner.emplace(built->fleet, replay_config);
  }, report.outcome.notes);
  const sim::Scenario& scenario = *built;
  check_run(scenario.fleet, nullptr, *recorded, executed,
            scenario.weights.gamma, report.tally);
  // Replay the executed decisions, then one drain slot: the last decision
  // with every arrival stream off, so each request either completes inside
  // the horizon or is counted as failed.
  std::vector<dc::Allocation> decisions = executed;
  decisions.push_back(executed.back());
  for (auto& group : decisions.back()) group.load = 0.0;

  std::optional<des::ShardReplayResult> first;
  std::uint64_t requests = 0;
  std::uint64_t in_flight = 0;
  const auto tally_replay = [&](const des::ShardReplayResult& result) {
    requests += result.requests;
    in_flight += result.in_flight;
  };
  const auto unit = [&](Pass& pass) {
    const double start = now_s();
    des::ShardReplayResult result = runner->replay(decisions);
    // An operation is a request: the rate is requests the DES processed.
    pass.call_rates.back().push_back(static_cast<double>(result.requests) /
                                     (now_s() - start));
    pass.slots += decisions.size();
    pass.counts["des.requests"] += static_cast<double>(result.requests);
    pass.counts["des.completions"] += static_cast<double>(result.completions);
    pass.counts["des.in_flight"] += static_cast<double>(result.in_flight);
    pass.check([&] {
      tally_replay(result);
      if (!first) first = std::move(result);
      else if (!bit_identical(*first, result)) {
        report.error("replays of the same decisions differ");
      }
    });
  };

  Pass plain(false);
  run_pass(plain, plain_seconds(options), 0, unit);

  // Determinism at 1 vs 2 shard threads, outside the timed wall (the traced
  // run also reads the 1-thread time for des.parallel_eff).
  des::ShardReplayConfig serial_config = replay_config;
  serial_config.threads = 1;
  des::ShardRunner serial_runner(scenario.fleet, serial_config);
  const double serial_start = now_s();
  const des::ShardReplayResult serial = serial_runner.replay(decisions);
  const double serial_s = now_s() - serial_start;
  tally_replay(serial);
  if (!bit_identical(serial, *first)) {
    report.error("replay at 1 thread differs from " +
                 std::to_string(kDesThreads) + " threads");
  }

  report.gate_rate(plain, "requests_per_s", "req/s");
  report.gated["cost_usd"] = recorded->metrics.total_cost();
  report.gated["brown_mwh"] = recorded->metrics.total_brown_kwh() / 1000.0;
  report.outcome.attempted = requests;
  report.outcome.failed = in_flight;
  // All digits: run.py requires every process of a run to print the same.
  report.outcome.notes.push_back(
      "sojourn_p99_s = " + format("%.17g", first->quantile(0.99)) + " s (" +
      std::to_string(first->requests) + " requests per replay)");

  if (!options.trace) return;
  Pass traced(true);
  run_pass(traced, 0.0, plain.units, unit);
  Values& layer = report.layer;
  common_layers(plain, traced, layer);
  const double units = static_cast<double>(traced.units);
  layer["sim.scenario_s"] = util::summarize(scenario_s).p50;
  layer["des.record_s"] = util::summarize(record_s).p50;
  layer["des.replay_s"] = traced.wall_s / units;
  layer["des.requests"] = traced.counts["des.requests"] / units;
  layer["des.completions"] = traced.counts["des.completions"] / units;
  layer["des.in_flight"] = traced.counts["des.in_flight"] / units;
  layer["des.requests_per_s"] = report.gated["ops_per_s"];
  layer["des.sojourn_p99_s"] = first->quantile(0.99);
  layer["des.parallel_eff"] =
      serial_s / (static_cast<double>(kDesThreads) *
                  util::summarize(plain.unit_wall_s).p50);
}

// ---- fault_ops -------------------------------------------------------------

void fault_ops(const Options& options, Report& report) {
  const Seeds seeds = seeds_for(options.seed);
  sim::ScenarioConfig config;
  config.seed = seeds.scenario;
  std::optional<sim::Scenario> built;
  std::vector<fault::Schedule> schedules;
  std::vector<double> scenario_s;
  std::vector<double> schedule_s;
  report.gated["setup_s"] = repeat_setup([&] {
    double start = now_s();
    built.emplace(sim::build_scenario(config));
    scenario_s.push_back(now_s() - start);
    start = now_s();
    schedules.clear();
    const std::size_t slots = built->env.slots();
    for (const FaultPoint& point : kFaultGrid) {
      fault::Profile profile;
      profile.outage_rate = point.outage_rate;
      profile.staleness_lag = point.staleness_lag;
      profile.seed = seeds.fault;
      fault::Schedule schedule = fault::Schedule::generate(
          profile, built->fleet.group_count(), slots);
      for (std::size_t t = kCrashEvery; t < slots; t += kCrashEvery) {
        schedule.crashes.push_back({t});
      }
      schedule.checkpoint_every = kCheckpointEvery;
      schedules.push_back(std::move(schedule));
    }
    schedule_s.push_back(now_s() - start);
  }, report.outcome.notes);
  const sim::Scenario& scenario = *built;
  const obs::HealthConfig health_config = sim::default_health_config(scenario);

  // One profile-year.  With `plane`, the operator telemetry plane is wired
  // the way bench/health_smoke wires it: registry, span profiler, async
  // sink (block policy) into a discarding stream, health monitor, exporter.
  const auto run_profile = [&](Pass& pass, const fault::Schedule& schedule,
                               bool plane,
                               std::vector<dc::Allocation>* executed) {
    core::CocaController coca(scenario.fleet, coca_config(scenario, kFixedV));
    std::optional<TimedController> timed;
    core::SlotController& controller = pass.controller_for(coca, timed);
    sim::SimOptions sim_options;
    sim_options.faults = &schedule;
    sim_options.record_allocations = executed;
    if (!plane) {
      return sim::run_simulation(scenario.fleet, scenario.env, controller,
                                 scenario.weights, sim_options);
    }
    obs::Registry registry;
    const obs::GlobalRegistryScope registry_scope(&registry);
    obs::SpanProfiler profiler;
    const obs::SpanProfilerScope profiler_scope(&profiler);
    DiscardStream discard;
    std::optional<sim::SimResult> run;
    {
      obs::AsyncTraceSink async(discard);
      std::optional<TimedSink> timed_sink;
      obs::TraceSink& sink =
          pass.traced ? static_cast<obs::TraceSink&>(
                            timed_sink.emplace(async, pass.sink))
                      : async;
      obs::HealthMonitor health(health_config, &sink);
      obs::Exporter exporter({.path = "",
                              .cadence_slots = kExportEvery,
                              .exposition = {.mask_timing = true}});
      sim_options.trace = &sink;
      sim_options.health = &health;
      sim_options.exporter = &exporter;
      run.emplace(sim::run_simulation(scenario.fleet, scenario.env, controller,
                                      scenario.weights, sim_options));
      sink.set_footer(profiler.to_json());
      exporter.write_now(registry);
      Values& counts = pass.counts;
      counts["obs.exporter_writes"] += static_cast<double>(exporter.writes());
      counts["obs.async_dropped"] += static_cast<double>(async.dropped());
      counts["obs.sink_high_water"] =
          std::max(counts["obs.sink_high_water"],
                   static_cast<double>(async.high_water()));
      for (const obs::HealthEvent& event : health.events()) {
        if (event.timing) continue;  // wall-clock rules are not pinned
        if (event.level == obs::HealthLevel::kWarn) counts["obs.health_warn"] += 1;
        if (event.level == obs::HealthLevel::kCritical) {
          counts["obs.health_critical"] += 1;
        }
      }
    }  // the sink drains and joins its writer here, inside the timed section
    Values& counts = pass.counts;
    for (const char* name :
         {"ladder.solves", "pool.tasks_submitted", "obs.trace_dropped"}) {
      counts[name] += static_cast<double>(registry.counter_value(name));
    }
    for (const auto& [path, stats] : profiler.snapshot()) {
      counts["obs.spans"] += static_cast<double>(stats.count);
    }
    return std::move(*run);
  };

  std::optional<std::pair<double, double>> first;  // grid cost, grid brown
  const auto unit = [&](Pass& pass) {
    double cost = 0.0;
    double brown = 0.0;
    for (const fault::Schedule& schedule : schedules) {
      std::vector<dc::Allocation> executed;
      executed.reserve(scenario.env.slots());
      const sim::SimResult run = pass.timed(scenario.env.slots(), [&] {
        return run_profile(pass, schedule, true, &executed);
      });
      pass.account(run);
      cost += run.metrics.total_cost();
      brown += run.metrics.total_brown_kwh();
      pass.check([&] {
        const fault::Injector injector(scenario.fleet, schedule,
                                       scenario.env.slots());
        check_run(scenario.fleet, &injector, run, executed,
                  scenario.weights.gamma, report.tally);
        if (run.faults.crash_restarts !=
            static_cast<std::int64_t>(schedule.crashes.size())) {
          report.error("crash restarts " +
                       std::to_string(run.faults.crash_restarts) + " != " +
                       std::to_string(schedule.crashes.size()) + " crashes");
        }
      });
    }
    pass.check([&] {
      const std::pair<double, double> result{cost, brown};
      if (!first) first = result;
      else if (*first != result) report.error("unit results differ");
    });
  };

  Pass plain(false);
  run_pass(plain, plain_seconds(options), 0, unit);
  if (plain.counts["obs.trace_dropped"] + plain.counts["obs.async_dropped"] >
      0.0) {
    report.error("the block-policy trace sink dropped records");
  }
  report.gate_rate(plain, "slots_per_s", "slot/s");
  report.gated["cost_usd"] = first->first;
  report.gated["brown_mwh"] = first->second / 1000.0;
  report.outcome.notes.push_back(
      "grid: " + std::to_string(std::size(kFaultGrid)) +
      " profile-years, a crash every " + std::to_string(kCrashEvery) +
      " slots, checkpoints every " + std::to_string(kCheckpointEvery) +
      "; cost_usd and brown_mwh are grid totals");

  if (!options.trace) return;
  Pass traced(true);
  run_pass(traced, 0.0, plain.units, unit);
  Values& layer = report.layer;
  slot_layers(traced, layer);
  common_layers(plain, traced, layer);
  const double units = static_cast<double>(traced.units);
  layer["sim.scenario_s"] = util::summarize(scenario_s).p50;
  layer["fault.schedule_s"] = util::summarize(schedule_s).p50;
  layer["obs.spans"] = traced.counts["obs.spans"] / units;
  layer["obs.exporter_writes"] = traced.counts["obs.exporter_writes"] / units;
  layer["obs.trace_dropped"] =
      (traced.counts["obs.trace_dropped"] + traced.counts["obs.async_dropped"]) /
      units;
  layer["obs.sink_high_water"] = traced.counts["obs.sink_high_water"];
  layer["obs.health_warn"] = traced.counts["obs.health_warn"] / units;
  layer["obs.health_critical"] = traced.counts["obs.health_critical"] / units;

  // Share of a profile-year's wall the telemetry plane costs: the same
  // profile with the plane attached and detached, alternated twice.
  Pass detached(false);
  std::vector<double> on_s;
  std::vector<double> off_s;
  for (int r = 0; r < 2; ++r) {
    for (const bool plane : {true, false}) {
      const double start = now_s();
      run_profile(detached, schedules[kPlaneProfile], plane, nullptr);
      (plane ? on_s : off_s).push_back(now_s() - start);
    }
  }
  layer["obs.plane_share"] =
      1.0 - util::summarize(off_s).p50 / util::summarize(on_s).p50;
}

struct Entry {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr Entry kWorkloads[] = {
    {"year_ladder", year_ladder},
    {"gsd_fleet", gsd_fleet},
    {"des_replay", des_replay},
    {"fault_ops", fault_ops},
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Entry& entry : kWorkloads) out.emplace_back(entry.name);
    return out;
  }();
  return names;
}

Outcome run_workload(const Options& options) {
  const Entry* entry = std::find_if(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&options](const Entry& e) { return options.workload == e.name; });
  if (entry == std::end(kWorkloads)) {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  Report report;
  const HostCalibration host_start = host_calibration();
  entry->run(options, report);
  const HostCalibration host_end = host_calibration();

  Outcome& outcome = report.outcome;
  const CheckTally& tally = report.tally;
  if (outcome.attempted == 0) {  // slot workloads: an operation is a slot
    outcome.attempted = tally.slots;
    outcome.failed = tally.failed_slots;
  }
  for (const std::string& error : tally.errors) report.error(error);
  outcome.notes.push_back(
      "checks: " + std::to_string(tally.slots) + " slots, worst |sum lambda_i - (lambda - shed)| / lambda " +
      format("%.3g", tally.worst_load_sum_rel) +
      ", worst lambda_i overshoot of gamma*x_i " +
      format("%.3g", tally.worst_capacity_rel));
  report.gated["peak_rss_mb"] = Usage::now().max_rss_mib;
  report.layer["host.ref_ms"] =
      0.5 * (host_start.ref_ms + host_end.ref_ms);
  report.layer["host.parallelism"] =
      0.5 * (host_start.parallelism + host_end.parallelism);
  outcome.notes.push_back(
      "host: ref_ms " + format("%.4g", host_start.ref_ms) + " -> " +
      format("%.4g", host_end.ref_ms) + ", parallelism at 2 threads " +
      format("%.3g", host_start.parallelism) + " -> " +
      format("%.3g", host_end.parallelism));
  outcome.metrics = options.trace ? emit(kLayers, report.layer)
                                  : emit(kGated, report.gated);
  return outcome;
}

}  // namespace perfbench

#include "sim/simulator.hpp"

#include <memory>
#include <string>
#include <utility>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "opt/load_lp.hpp"
#include "opt/slot_problem.hpp"
#include "util/units.hpp"

namespace coca::sim {

namespace {

/// Active-weighted mean speed-level index of an allocation (the "chosen
/// speed vector summary" of the slot trace).
double mean_speed_level(const dc::Allocation& alloc) {
  double servers = 0.0;
  double weighted = 0.0;
  for (const auto& a : alloc) {
    servers += a.active;
    weighted += a.active * static_cast<double>(a.level);
  }
  return servers > 0.0 ? weighted / servers : 0.0;
}

/// Everything a run carries from one slot to the next.
struct Run {
  Run(const dc::Fleet& caller_fleet, const Environment& environment,
      core::SlotController& slot_controller, const opt::SlotWeights& weights,
      const SimOptions& sim_options)
      : env(environment),
        controller(slot_controller),
        options(sim_options),
        billing(weights),
        slot_fleet(&caller_fleet),
        previous(caller_fleet.group_count()) {
    billing.V = 1.0;
    billing.q = 0.0;
    // Fault injection is resolved once, up front; when the schedule is null
    // or empty the injector stays null and every stage follows the exact
    // fault-free path (byte-identical runs — the empty-schedule golden
    // contract).
    if (options.faults != nullptr && !options.faults->empty()) {
      injector = std::make_unique<fault::Injector>(caller_fleet,
                                                   *options.faults,
                                                   env.slots());
      // Crash resilience: checkpoint the controller (coca-ckpt-v2) every
      // `checkpoint_every` slots; a crash restores the last blob.
      // Controllers without checkpoint support simply keep their (uncrashed)
      // state — the crash still counts as a restart.
      if (injector->has_crashes() && controller.supports_checkpoint()) {
        checkpoint_every = injector->checkpoint_every();
        last_checkpoint = controller.checkpoint(0);
        ++result.faults.checkpoints_taken;
        obs::count("fault.checkpoints");
      }
    }
    obs::count("sim.runs");
    if (registry != nullptr) {
      drops_before = registry->counter_value("obs.trace_dropped");
    }
  }

  const Environment& env;
  core::SlotController& controller;
  const SimOptions& options;
  /// Billing weights: V and q forced to (1, 0) so billed costs are true costs.
  opt::SlotWeights billing;
  /// Null on clean runs.  Only `resolve` and the shed decision read it.
  std::unique_ptr<fault::Injector> injector;
  const dc::Fleet* slot_fleet;   ///< the fleet the current slot runs on
  std::size_t fleet_index = 0;   ///< injector index of *slot_fleet
  std::size_t checkpoint_every = 0;  ///< 0 = not checkpointing
  std::string last_checkpoint;
  std::int64_t last_checkpoint_slot = 0;
  double rec_spend_before = 0.0;
  /// The health plane consumes the same per-slot record the trace sink gets,
  /// so a monitor without a sink still sees every field (including solve
  /// timing, which only ever feeds info-level events).
  bool want_slot_record = options.trace != nullptr || options.health != nullptr;
  obs::Registry* registry = obs::global();
  std::int64_t drops_before = 0;
  dc::Allocation previous;  ///< the last slot's executed allocation
  SimResult result;
};

/// One slot, filled in stage by stage.
struct Slot {
  std::size_t t = 0;
  opt::SlotInput planned;  ///< the controller's (possibly stale) view
  opt::SlotInput actual;   ///< ground truth: what the slot is billed on
  bool crashed = false;
  bool degraded = false;
  std::int64_t stale_count = 0;
  std::int64_t eval_budget = -1;  ///< 0 = deadline passed before the solve
  bool fallback = false;
  std::int64_t solve_ns = 0;
  dc::Allocation plan;      ///< the decided allocation
  dc::Allocation executed;  ///< after runtime balancing and any fallback
  opt::SlotOutcome billed;
  double shed_lambda = 0.0;
  double toggles = 0.0;
  double switch_kwh = 0.0;
};

/// Resolve slot t's inputs and fault state: crash/restore, fleet swap,
/// telemetry staleness, solve deadline.  All table lookups; the span
/// attributes the (tiny, deterministic) fault-path cost in profiles of fault
/// runs.
Slot resolve(Run& run, std::size_t t) {
  const Environment& env = run.env;
  Slot slot;
  slot.t = t;
  slot.planned = {env.planning[t], env.onsite_kw[t], env.price[t]};
  slot.actual = {env.workload[t], env.onsite_kw[t], env.price[t]};
  if (run.injector == nullptr) return slot;

  const obs::ScopedSpan fault_span("fault_inject");
  const fault::Injector& faults = *run.injector;
  fault::FaultStats& fstats = run.result.faults;
  if (faults.crash_before(t)) {
    slot.crashed = true;
    ++fstats.crash_restarts;
    obs::count("fault.crash_restarts");
    if (run.checkpoint_every != 0) {
      run.controller.restore(run.last_checkpoint);
      // Restoring may roll back dynamic-REC spend already billed to the
      // run; re-anchor so the next delta is measured from the restored
      // state rather than billed negative.
      run.rec_spend_before = run.controller.diagnostics(t).rec_spend_total;
    }
  }
  const std::size_t fleet_index = faults.fleet_index_at(t);
  run.slot_fleet = &faults.fleet_at(t);
  if (fleet_index != run.fleet_index) {
    run.controller.set_fleet(*run.slot_fleet);
    run.fleet_index = fleet_index;
  }
  slot.degraded = faults.degraded_at(t);
  if (slot.degraded) {
    ++fstats.degraded_slots;
    obs::count("fault.degraded_slots");
  }
  const fault::StalenessLags lags = faults.staleness_at(t);
  if (lags.any()) {
    // Last-known-good telemetry: plan on the value from `lag` slots ago
    // (clamped to the horizon start).  Billing still uses the true slot-t
    // environment — only the controller's view is stale.
    if (lags.lambda > 0) {
      slot.planned.lambda =
          env.planning[t >= lags.lambda ? t - lags.lambda : 0];
    }
    if (lags.price > 0) {
      slot.planned.price = env.price[t >= lags.price ? t - lags.price : 0];
    }
    if (lags.renewable > 0) {
      slot.planned.onsite_kw =
          env.onsite_kw[t >= lags.renewable ? t - lags.renewable : 0];
    }
    slot.stale_count = lags.stale_channels();
    fstats.stale_inputs += slot.stale_count;
    obs::count("fault.stale_inputs", slot.stale_count);
  }
  slot.eval_budget = faults.evaluation_budget(t);
  run.controller.set_evaluation_budget(slot.eval_budget);
  return slot;
}

/// Decide the slot's allocation: the controller's plan or, when the solve
/// deadline passed before any evaluation could run, the anytime fallback —
/// the previous slot's allocation clamped to the surviving fleet.
void decide(Run& run, Slot& slot) {
  // Clock reads happen only when a trace or health monitor asks for them
  // (obs boundary); the readings never influence the run.
  const std::int64_t start_ns = run.want_slot_record ? obs::now_ns() : 0;
  if (slot.eval_budget == 0) {
    slot.plan = opt::clamped_to_fleet(*run.slot_fleet, run.previous);
    slot.fallback = true;
    ++run.result.faults.fallback_activations;
    obs::count("fault.fallback_activations");
  } else {
    slot.plan = run.controller.plan(slot.t, slot.planned).alloc;
  }
  slot.solve_ns = run.want_slot_record ? obs::now_ns() - start_ns : 0;
}

/// Runtime load balancing: distribute the actual workload over the decided
/// capacity.  Short capacity (the forecast under-provisioned) wakes just
/// enough extra servers — proportional expansion, then speed raises — and
/// failing that the emergency all-on configuration.  A degraded fleet that
/// cannot serve lambda even all-on sheds instead.
void actuate(Run& run, Slot& slot) {
  const dc::Fleet& fleet = *run.slot_fleet;
  const opt::SlotWeights& billing = run.billing;
  const double lambda = slot.actual.lambda;
  slot.executed = slot.plan;
  opt::LoadBalanceResult balanced =
      opt::solve_load_lp(fleet, slot.executed, slot.actual, billing);
  if (balanced.feasible) {
    slot.billed = std::move(balanced.outcome);
    return;
  }
  ++run.result.infeasible_slots;
  if (run.injector == nullptr ||
      opt::slot_feasible(fleet, lambda, billing.gamma)) {
    slot.executed =
        opt::expanded_to_capacity(fleet, slot.plan, lambda, billing.gamma);
    balanced = opt::solve_load_lp(fleet, slot.executed, slot.actual, billing);
    if (!balanced.feasible) {
      slot.executed = opt::all_on_max(fleet, lambda, billing.gamma);
      balanced = opt::solve_load_lp(fleet, slot.executed, slot.actual, billing);
    }
    slot.billed = std::move(balanced.outcome);
    return;
  }
  // Degraded-mode shed: serve the gamma-capped maximum, shed the rest, and
  // bill the shed load's waiting as delay cost (beta dollars per job-hour,
  // `shed_jobs_per_rps` jobs per unit rate).  The all-groups-down slot is
  // the limit case: zero served load, all-off allocation, the whole lambda
  // shed — and the queue still updates on the billed (switching-only) brown
  // energy.
  slot.executed = opt::all_on_max(fleet, lambda, billing.gamma);
  const double served = dc::total_load(slot.executed);
  const opt::SlotInput served_input{served, slot.actual.onsite_kw,
                                    slot.actual.price};
  slot.billed = opt::evaluate(fleet, slot.executed, served_input, billing);
  slot.shed_lambda = lambda - served;
  const double shed_jobs = run.injector->shed_jobs_per_rps() * slot.shed_lambda;
  const double shed_delay = billing.beta * shed_jobs * billing.slot_hours;
  slot.billed.delay_jobs += shed_jobs;
  slot.billed.delay_cost += shed_delay;
  slot.billed.total_cost += shed_delay;
  slot.billed.feasible = false;
  fault::FaultStats& fstats = run.result.faults;
  ++fstats.shed_slots;
  fstats.shed_lambda_total += slot.shed_lambda;
  obs::count("fault.shed_slots");
}

/// Switching energy: billed as brown energy at the slot's price (the paper
/// folds wear-and-tear and transition waste into kWh).
void bill_switching(const Run& run, Slot& slot) {
  slot.toggles = dc::toggles_between(run.previous, slot.executed);
  slot.switch_kwh = dc::switching_energy_kwh(run.options.switching,
                                             run.previous, slot.executed);
  slot.billed.brown_kwh += slot.switch_kwh;
  slot.billed.electricity_cost += slot.actual.price * slot.switch_kwh;
  slot.billed.total_cost += slot.actual.price * slot.switch_kwh;
}

/// The slot's trace record, for the trace sink and the health plane.
obs::SlotTrace trace_record(const Run& run, const Slot& slot,
                            const SlotRecord& record,
                            const core::SlotDiagnostics& diag,
                            double rec_cost) {
  const Environment& env = run.env;
  const std::size_t t = slot.t;
  obs::SlotTrace trace;
  trace.t = t;
  trace.lambda = env.workload[t];
  trace.price = env.price[t];
  trace.onsite_kw = env.onsite_kw[t];
  trace.offsite_kwh = env.offsite_kwh[t];
  trace.q = diag.queue_length;
  trace.v = diag.v;
  trace.active_servers = record.active_servers;
  trace.mean_speed_level = mean_speed_level(slot.executed);
  trace.feasible = slot.billed.feasible;
  trace.brown_kwh = slot.billed.brown_kwh;
  trace.electricity_cost = slot.billed.electricity_cost;
  trace.delay_cost = slot.billed.delay_cost;
  trace.rec_cost = rec_cost;
  trace.total_cost = slot.billed.total_cost + rec_cost;
  trace.evaluations = diag.solver_evaluations;
  trace.acceptance_rate =
      diag.solver_evaluations > 0
          ? static_cast<double>(diag.solver_accepted) /
                static_cast<double>(diag.solver_evaluations)
          : 0.0;
  trace.chains = diag.solver_chains;
  trace.winning_chain = diag.solver_winning_chain;
  trace.fault_active = record.degraded || record.stale || slot.fallback ||
                       slot.shed_lambda > 0.0 || slot.crashed;
  trace.degraded = record.degraded;
  trace.stale_inputs = slot.stale_count;
  trace.fallback = slot.fallback;
  trace.shed_lambda = slot.shed_lambda;
  trace.solve_ms = static_cast<double>(slot.solve_ns) / 1e6;
  return trace;
}

/// Everything the slot leaves behind: the REC spend delta, the checkpoint
/// cadence, the metrics record, the trace and health records, the
/// exposition and the allocation capture.
void emit(Run& run, Slot& slot) {
  const std::size_t t = slot.t;
  const SimOptions& options = run.options;
  // Post-slot controller state: queue, V, solver internals, and the
  // cumulative dynamic REC spend — billed here so controller-side purchases
  // reach the run's cost metrics (they are real dollars).
  const core::SlotDiagnostics diag = run.controller.diagnostics(t);
  const double rec_cost = diag.rec_spend_total - run.rec_spend_before;
  run.rec_spend_before = diag.rec_spend_total;

  if (run.checkpoint_every != 0 && (t + 1) % run.checkpoint_every == 0) {
    run.last_checkpoint = run.controller.checkpoint(t + 1);
    run.last_checkpoint_slot = static_cast<std::int64_t>(t) + 1;
    ++run.result.faults.checkpoints_taken;
    obs::count("fault.checkpoints");
  }

  // Lift the solver's raw-double outcome into the dimensioned record: the
  // one place per slot where billing doubles acquire their units.
  const opt::SlotOutcome& billed = slot.billed;
  SlotRecord record;
  record.lambda = units::rps(slot.actual.lambda);
  record.it_power_kw = units::kw(billed.it_power_kw);
  record.facility_power_kw = units::kw(billed.facility_power_kw);
  record.brown_kwh = units::kwh(billed.brown_kwh);
  record.electricity_cost = units::usd(billed.electricity_cost);
  record.delay_cost = units::usd(billed.delay_cost);
  record.total_cost = units::usd(billed.total_cost);
  record.rec_cost = units::usd(rec_cost);
  record.queue_length = diag.queue_length;
  record.active_servers = dc::total_active_servers(slot.executed);
  record.toggles = slot.toggles;
  record.switching_kwh = units::kwh(slot.switch_kwh);
  record.shed_lambda = units::rps(slot.shed_lambda);
  record.degraded = slot.degraded;
  record.stale = slot.stale_count > 0;
  record.fallback = slot.fallback;
  run.result.metrics.record(record);

  if (run.want_slot_record) {
    const obs::SlotTrace trace =
        trace_record(run, slot, record, diag, rec_cost);
    if (options.trace != nullptr) options.trace->record(trace);
    if (options.health != nullptr) {
      // Sink first, monitor second: drops the async sink counted while
      // enqueueing this very record land in this slot's delta.
      obs::SlotHealthContext ctx;
      ctx.slots_since_checkpoint =
          run.checkpoint_every != 0
              ? static_cast<std::int64_t>(t) + 1 - run.last_checkpoint_slot
              : -1;
      if (run.registry != nullptr) {
        const std::int64_t drops_now =
            run.registry->counter_value("obs.trace_dropped");
        ctx.trace_drops = drops_now - run.drops_before;
        run.drops_before = drops_now;
      }
      options.health->on_slot(trace, ctx);
    }
  }

  if (options.exporter != nullptr && run.registry != nullptr) {
    options.exporter->on_slot(t, *run.registry);
  }
  if (options.record_allocations != nullptr) {
    options.record_allocations->push_back(slot.executed);
  }
  run.previous = std::move(slot.executed);
}

}  // namespace

SimResult run_simulation(const dc::Fleet& fleet, const Environment& env,
                         core::SlotController& controller,
                         const opt::SlotWeights& weights,
                         const SimOptions& options) {
  env.validate();
  Run run(fleet, env, controller, weights, options);
  for (std::size_t t = 0; t < env.slots(); ++t) {
    // Root of the per-slot span hierarchy: fault resolution, plan, billing
    // and observe (so the controller's solver and REC spans nest
    // underneath).  One span per slot keeps counts deterministic (== slot
    // count).
    const obs::ScopedSpan slot_span("slot");
    Slot slot = resolve(run, t);
    decide(run, slot);
    actuate(run, slot);
    bill_switching(run, slot);
    controller.observe(t, slot.billed, env.offsite_kwh[t]);
    emit(run, slot);
  }
  // Re-seat the controller on the caller's fleet: the degraded copies die
  // with the injector at the end of this function.
  if (run.fleet_index != 0) controller.set_fleet(fleet);
  obs::count("sim.slots", static_cast<std::int64_t>(env.slots()));
  return std::move(run.result);
}

}  // namespace coca::sim

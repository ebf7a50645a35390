// Simulator fault paths (sim/simulator.cpp + fault/): the empty-schedule
// byte-identity contract, outage redistribution vs shedding, the
// all-groups-down slot, telemetry staleness, the deadline fallback, crash
// counting on stateless controllers, thread/tracing invariance, DES replay
// of fault-run decisions, and P3's per-slot constraints on clean and faulted
// runs, with the billed loads checked against the reference load balancer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baselines/carbon_unaware.hpp"
#include "core/coca_controller.hpp"
#include "des/shard_runner.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "obs/trace.hpp"
#include "opt/load_balancer.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

namespace coca {
namespace {

using fault::Channel;
using fault::Schedule;

constexpr std::size_t kSlots = 40;

std::vector<double> lambda_values(std::size_t slots) {
  std::vector<double> values(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    values[t] = 90.0 + 5.0 * static_cast<double>((t * 7) % 11);
  }
  return values;
}

sim::Environment make_env(std::size_t slots = kSlots) {
  const std::vector<double> lambda = lambda_values(slots);
  std::vector<double> price(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    price[t] = 0.04 + 0.01 * static_cast<double>((t * 3) % 5);
  }
  const std::vector<double> zero(slots, 0.0);
  return sim::Environment{workload::Trace("lambda", lambda),
                          workload::Trace("lambda", lambda),
                          workload::Trace("onsite", zero),
                          workload::Trace("price", price),
                          workload::Trace("offsite", zero)};
}

core::CocaConfig coca_config(double v = 50.0) {
  core::CocaConfig config;
  config.schedule = core::VSchedule::constant(v);
  return config;
}

void expect_metrics_bitwise_equal(const sim::Metrics& a,
                                  const sim::Metrics& b) {
  ASSERT_EQ(a.slot_count(), b.slot_count());
  EXPECT_EQ(a.cost_series(), b.cost_series());
  EXPECT_EQ(a.brown_series(), b.brown_series());
  EXPECT_EQ(a.queue_series(), b.queue_series());
  EXPECT_EQ(a.delay_cost_series(), b.delay_cost_series());
}

TEST(FaultSim, EmptyScheduleIsByteIdenticalToNoSchedule) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();

  obs::SlotTraceWriter clean_trace;
  core::CocaController clean_ctrl(fleet, coca_config());
  sim::SimOptions clean_options;
  clean_options.trace = &clean_trace;
  const auto clean = sim::run_simulation(fleet, env, clean_ctrl, {},
                                         clean_options);

  const Schedule empty;
  ASSERT_TRUE(empty.empty());
  obs::SlotTraceWriter fault_trace;
  core::CocaController fault_ctrl(fleet, coca_config());
  sim::SimOptions fault_options;
  fault_options.trace = &fault_trace;
  fault_options.faults = &empty;
  const auto faulted = sim::run_simulation(fleet, env, fault_ctrl, {},
                                           fault_options);

  expect_metrics_bitwise_equal(clean.metrics, faulted.metrics);
  EXPECT_EQ(obs::mask_timing_fields(clean_trace.to_jsonl()),
            obs::mask_timing_fields(fault_trace.to_jsonl()));
  EXPECT_EQ(faulted.faults.degraded_slots, 0);
  EXPECT_EQ(faulted.faults.shed_slots, 0);
  EXPECT_EQ(faulted.faults.fallback_activations, 0);
  EXPECT_EQ(faulted.faults.crash_restarts, 0);
  EXPECT_EQ(faulted.faults.checkpoints_taken, 0);
  EXPECT_EQ(faulted.metrics.total_shed_lambda(), 0.0);
}

TEST(FaultSim, OutageRedistributesLoadOverSurvivors) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();
  Schedule schedule;
  // One group dark for 10 slots: the survivors (gamma-capped capacity 180)
  // still cover every lambda in the trace (<= 140), so nothing sheds.
  schedule.outages = {{.group = 0, .begin = 10, .end = 20, .fraction = 1.0}};

  core::CocaController controller(fleet, coca_config());
  sim::SimOptions options;
  options.faults = &schedule;
  const auto result = sim::run_simulation(fleet, env, controller, {}, options);

  EXPECT_EQ(result.faults.degraded_slots, 10);
  EXPECT_EQ(result.faults.shed_slots, 0);
  EXPECT_EQ(result.metrics.total_shed_lambda(), 0.0);
  for (std::size_t t = 0; t < kSlots; ++t) {
    const auto& slot = result.metrics.slots()[t];
    EXPECT_EQ(slot.degraded, t >= 10 && t < 20);
    // Served everything every slot: positive billed cost, and on degraded
    // slots the survivors alone carry the load.
    EXPECT_GT(slot.total_cost.value(), 0.0);
    if (slot.degraded) {
      EXPECT_LE(slot.active_servers, 20.0);
    }
  }
}

TEST(FaultSim, AllGroupsDownShedsEverythingAndStillUpdatesQueue) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();
  Schedule schedule;
  schedule.shed_jobs_per_rps = 2.0;
  for (std::size_t g = 0; g < 3; ++g) {
    schedule.outages.push_back(
        {.group = g, .begin = 5, .end = 7, .fraction = 1.0});
  }

  obs::SlotTraceWriter trace;
  core::CocaController controller(fleet, coca_config());
  sim::SimOptions options;
  options.faults = &schedule;
  options.trace = &trace;
  const auto result = sim::run_simulation(fleet, env, controller, {}, options);

  EXPECT_EQ(result.faults.shed_slots, 2);
  EXPECT_GE(result.infeasible_slots, 2u);
  const double expected_shed = env.workload[5] + env.workload[6];
  EXPECT_DOUBLE_EQ(result.faults.shed_lambda_total, expected_shed);
  EXPECT_DOUBLE_EQ(result.metrics.total_shed_lambda(), expected_shed);

  const auto& slots = result.metrics.slots();
  for (const std::size_t t : {std::size_t{5}, std::size_t{6}}) {
    // The all-off slot: zero served load, zero active servers, the whole
    // arrival rate shed — billed as delay cost at shed_jobs_per_rps jobs
    // per unit rate.
    EXPECT_DOUBLE_EQ(slots[t].shed_lambda.value(), env.workload[t]);
    EXPECT_DOUBLE_EQ(slots[t].active_servers, 0.0);
    const double expected_delay = 0.005 * 2.0 * env.workload[t] * 1.0;
    EXPECT_DOUBLE_EQ(slots[t].delay_cost.value(), expected_delay);
    // Eq. 17 still ran: with free switching and no offsets the queue simply
    // carries over (y = 0, f = z = 0).
    const double q_before =
        t == 0 ? 0.0 : result.metrics.queue_series()[t - 1];
    EXPECT_DOUBLE_EQ(result.metrics.queue_series()[t], q_before);
  }
  // The trace marks the shed slots as fault-active and infeasible.
  const std::string jsonl = trace.to_jsonl();
  EXPECT_NE(jsonl.find("\"feasible\":false"), std::string::npos);
  EXPECT_NE(jsonl.find("\"shed_lambda\":"), std::string::npos);
}

TEST(FaultSim, StalenessPlansOnLastKnownGood) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();
  const std::size_t lag = 3;
  Schedule schedule;
  schedule.staleness = {{Channel::kLambda, 0, kSlots, lag}};

  core::CocaController stale_ctrl(fleet, coca_config());
  sim::SimOptions options;
  options.faults = &schedule;
  const auto stale = sim::run_simulation(fleet, env, stale_ctrl, {}, options);

  // Reference: a clean run whose planning trace is the hand-lagged workload.
  const std::vector<double> lambda = lambda_values(kSlots);
  std::vector<double> lagged(kSlots);
  for (std::size_t t = 0; t < kSlots; ++t) {
    lagged[t] = lambda[t >= lag ? t - lag : 0];
  }
  const sim::Environment lagged_env =
      env.with_planning(workload::Trace("lagged", lagged));
  core::CocaController clean_ctrl(fleet, coca_config());
  const auto clean = sim::run_simulation(fleet, lagged_env, clean_ctrl, {});

  expect_metrics_bitwise_equal(stale.metrics, clean.metrics);
  EXPECT_EQ(stale.faults.stale_inputs, static_cast<std::int64_t>(kSlots));
}

TEST(FaultSim, DeadlineZeroBudgetReusesThePreviousAllocation) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();
  // Slot 8's workload (95 req/s) fits under slot 7's footprint (sized for
  // 115 req/s), so the fallback allocation needs no runtime expansion.
  Schedule schedule;
  schedule.deadlines = {{.begin = 8, .end = 9, .max_evaluations = 0}};

  core::CocaController controller(fleet, coca_config());
  sim::SimOptions options;
  options.faults = &schedule;
  const auto result = sim::run_simulation(fleet, env, controller, {}, options);

  EXPECT_EQ(result.faults.fallback_activations, 1);
  const auto& slots = result.metrics.slots();
  EXPECT_TRUE(slots[8].fallback);
  EXPECT_FALSE(slots[7].fallback);
  // The anytime fallback re-used slot 7's capacity footprint (loads were
  // re-balanced to slot 8's actual workload).
  EXPECT_DOUBLE_EQ(slots[8].active_servers, slots[7].active_servers);
  EXPECT_GT(slots[8].total_cost.value(), 0.0);
}

TEST(FaultSim, GsdEvaluationBudgetStaysDeterministic) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 6);
  const sim::Environment env = make_env(8);
  Schedule schedule;
  schedule.deadlines = {{.begin = 0, .end = 8, .max_evaluations = 5}};

  auto run = [&] {
    core::CocaConfig config = coca_config();
    config.engine = core::P3Engine::kGsd;
    config.gsd.iterations = 40;
    config.gsd.threads = 1;
    core::CocaController controller(fleet, config);
    sim::SimOptions options;
    options.faults = &schedule;
    return sim::run_simulation(fleet, env, controller, {}, options);
  };
  const auto a = run();
  const auto b = run();
  // The anytime budget caps GSD's iterations; the capped solve is still a
  // pure function of (seed, slot), so repeated runs agree bitwise.
  expect_metrics_bitwise_equal(a.metrics, b.metrics);
  EXPECT_EQ(a.faults.fallback_activations, 0);
}

TEST(FaultSim, CrashOnStatelessControllerIsCountedButHarmless) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();
  Schedule schedule;
  schedule.crashes = {{.slot = 12}};

  baselines::CarbonUnawareController crash_ctrl(fleet, {});
  sim::SimOptions options;
  options.faults = &schedule;
  const auto crashed =
      sim::run_simulation(fleet, env, crash_ctrl, {}, options);

  baselines::CarbonUnawareController clean_ctrl(fleet, {});
  const auto clean = sim::run_simulation(fleet, env, clean_ctrl, {});

  // The per-slot minimizer carries no cross-slot state, so losing it changes
  // nothing — but the restart is still accounted.
  EXPECT_EQ(crashed.faults.crash_restarts, 1);
  EXPECT_EQ(crashed.faults.checkpoints_taken, 0);  // no checkpoint support
  expect_metrics_bitwise_equal(crashed.metrics, clean.metrics);
}

TEST(FaultSim, FaultRunsAreInvariantToSweepThreadsAndTracing) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();
  const std::vector<std::uint64_t> seeds{1, 2, 3};

  auto run_point = [&](std::size_t i, bool tracing) {
    fault::Profile profile;
    profile.outage_rate = 0.04;
    profile.mean_outage_slots = 4.0;
    profile.seed = seeds[i];
    profile.staleness_lag = i;  // point 0: fresh inputs
    const Schedule schedule = Schedule::generate(profile, 3, kSlots);
    core::CocaController controller(fleet, coca_config());
    obs::SlotTraceWriter trace;
    sim::SimOptions options;
    options.faults = &schedule;
    if (tracing) options.trace = &trace;
    return sim::run_simulation(fleet, env, controller, {}, options);
  };

  sim::SweepRunner serial({.threads = 1});
  sim::SweepRunner parallel({.threads = 4});
  const auto a =
      serial.map(seeds.size(), [&](std::size_t i) { return run_point(i, false); });
  const auto b = parallel.map(seeds.size(),
                              [&](std::size_t i) { return run_point(i, true); });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    // Thread count and tracing are pure observations: bitwise-equal metrics.
    expect_metrics_bitwise_equal(a[i].metrics, b[i].metrics);
    EXPECT_EQ(a[i].faults.degraded_slots, b[i].faults.degraded_slots);
    EXPECT_EQ(a[i].faults.stale_inputs, b[i].faults.stale_inputs);
  }
}

TEST(FaultSim, DesReplayOfFaultDecisionsIsLayoutInvariant) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 8);
  const sim::Environment env = make_env(6);
  Schedule schedule;
  schedule.outages = {{.group = 1, .begin = 2, .end = 4, .fraction = 1.0}};

  std::vector<dc::Allocation> decisions;
  core::CocaController controller(fleet, coca_config());
  sim::SimOptions options;
  options.faults = &schedule;
  options.record_allocations = &decisions;
  (void)sim::run_simulation(fleet, env, controller, {}, options);
  ASSERT_EQ(decisions.size(), 6u);
  // The degraded slots recorded an allocation with group 1 off.
  EXPECT_DOUBLE_EQ(decisions[2][1].active, 0.0);

  auto replay = [&](std::size_t shards, std::size_t threads) {
    des::ShardReplayConfig config;
    config.seconds_per_slot = 20.0;
    config.shards = shards;
    config.threads = threads;
    des::ShardRunner runner(fleet, config);
    return runner.replay(decisions);
  };
  const auto one = replay(1, 1);
  const auto many = replay(3, 4);
  EXPECT_GT(one.requests, 0u);
  EXPECT_EQ(one.requests, many.requests);
  EXPECT_EQ(one.completions, many.completions);
  EXPECT_EQ(one.total_response_seconds, many.total_response_seconds);
  EXPECT_EQ(one.sojourn.counts(), many.sojourn.counts());
}

/// P3 on every slot of a run under `schedule` (null = clean): sum of loads
/// = lambda - shed (relative 1e-7), 0 <= load_i <= gamma * active_i *
/// rate(level_i) (up to rounding), active_i within the slot's possibly
/// degraded fleet, finite billed costs and q >= 0.  On every slot that shed
/// nothing, re-balancing the executed (level, active) with the reference
/// `balance_loads` on the slot's fleet must reproduce the recorded loads, IT
/// power and delay cost bit for bit.
void expect_p3_on_every_slot(const dc::Fleet& fleet,
                             const sim::Environment& env,
                             const Schedule* schedule,
                             const opt::SlotWeights& weights,
                             const sim::SimResult& result,
                             const std::vector<dc::Allocation>& executed) {
  std::optional<fault::Injector> injector;
  if (schedule != nullptr) injector.emplace(fleet, *schedule, env.slots());
  opt::SlotWeights billing = weights;  // the simulator bills at (V, q) = (1, 0)
  billing.V = 1.0;
  billing.q = 0.0;
  const auto& records = result.metrics.slots();
  ASSERT_EQ(records.size(), env.slots());
  ASSERT_EQ(executed.size(), env.slots());
  for (std::size_t t = 0; t < records.size(); ++t) {
    SCOPED_TRACE("slot " + std::to_string(t));
    const dc::Fleet& slot_fleet = injector ? injector->fleet_at(t) : fleet;
    const sim::SlotRecord& record = records[t];
    const dc::Allocation& alloc = executed[t];
    ASSERT_EQ(alloc.size(), slot_fleet.group_count());
    double served = 0.0;
    for (std::size_t g = 0; g < alloc.size(); ++g) {
      const dc::ServerGroup& group = slot_fleet.group(g);
      ASSERT_LT(alloc[g].level, group.spec().level_count());
      EXPECT_GE(alloc[g].active, 0.0);
      EXPECT_LE(alloc[g].active, static_cast<double>(group.server_count()));
      const double cap = billing.gamma * alloc[g].active *
                         group.spec().level(alloc[g].level).service_rate;
      EXPECT_GE(alloc[g].load, 0.0);
      EXPECT_LE(alloc[g].load, cap * (1.0 + 1e-12)) << "group " << g;
      served += alloc[g].load;
    }
    const double target = record.lambda.value() - record.shed_lambda.value();
    EXPECT_LE(std::abs(served - target), 1e-7 * std::max(1.0, target));
    for (const double billed :
         {record.it_power_kw.value(), record.facility_power_kw.value(),
          record.brown_kwh.value(), record.electricity_cost.value(),
          record.delay_cost.value(), record.total_cost.value(),
          record.rec_cost.value()}) {
      EXPECT_TRUE(std::isfinite(billed));
    }
    EXPECT_GE(record.queue_length, 0.0);

    if (record.shed_lambda.value() > 0.0) continue;
    dc::Allocation rebalanced = alloc;
    const opt::LoadBalanceResult reference = opt::balance_loads(
        slot_fleet, rebalanced,
        {env.workload[t], env.onsite_kw[t], env.price[t]}, billing);
    EXPECT_TRUE(reference.feasible);
    for (std::size_t g = 0; g < alloc.size(); ++g) {
      EXPECT_EQ(rebalanced[g].load, alloc[g].load) << "group " << g;
    }
    EXPECT_EQ(reference.outcome.it_power_kw, record.it_power_kw.value());
    EXPECT_EQ(reference.outcome.delay_cost, record.delay_cost.value());
  }
}

/// Runs COCA under `schedule` (null = clean) with allocation capture, and
/// checks P3 on every slot.
sim::SimResult run_checking_p3(const dc::Fleet& fleet,
                               const sim::Environment& env,
                               const Schedule* schedule) {
  const opt::SlotWeights weights;
  core::CocaController controller(fleet, coca_config());
  std::vector<dc::Allocation> executed;
  sim::SimOptions options;
  options.faults = schedule;
  options.record_allocations = &executed;
  sim::SimResult result =
      sim::run_simulation(fleet, env, controller, weights, options);
  expect_p3_on_every_slot(fleet, env, schedule, weights, result, executed);
  return result;
}

TEST(FaultSim, P3HoldsOnEverySlotAndBillingMatchesTheReference) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();
  {
    SCOPED_TRACE("clean");
    (void)run_checking_p3(fleet, env, nullptr);
  }
  {
    // Fleet swaps: half of group 0 fails, group 1 goes dark inside that
    // window, and both are repaired back onto the baseline fleet.
    SCOPED_TRACE("fleet swaps");
    Schedule schedule;
    schedule.outages = {{.group = 0, .begin = 4, .end = 20, .fraction = 0.5},
                        {.group = 1, .begin = 10, .end = 16, .fraction = 1.0}};
    const auto result = run_checking_p3(fleet, env, &schedule);
    EXPECT_EQ(result.faults.degraded_slots, 16);
  }
  {
    // Stale lambda on a degraded fleet: plans sized for an old, smaller
    // workload leave the slot short, so the runtime expansion runs.
    SCOPED_TRACE("stale lambda");
    Schedule schedule;
    schedule.staleness = {{Channel::kLambda, 0, kSlots, 2}};
    schedule.outages = {{.group = 2, .begin = 6, .end = 30, .fraction = 0.5}};
    const auto result = run_checking_p3(fleet, env, &schedule);
    EXPECT_EQ(result.faults.stale_inputs, static_cast<std::int64_t>(kSlots));
    EXPECT_GT(result.infeasible_slots, 0u);
  }
  {
    // Zero-budget deadlines, one on the slot a half outage starts: the
    // fallback clamps the previous allocation onto the smaller fleet.
    SCOPED_TRACE("deadline fallback");
    Schedule schedule;
    schedule.outages = {{.group = 0, .begin = 8, .end = 14, .fraction = 0.5}};
    schedule.deadlines = {{.begin = 8, .end = 9, .max_evaluations = 0},
                          {.begin = 20, .end = 22, .max_evaluations = 0}};
    const auto result = run_checking_p3(fleet, env, &schedule);
    EXPECT_EQ(result.faults.fallback_activations, 3);
  }
  {
    // Crash restores from a checkpoint up to four slots old.
    SCOPED_TRACE("crash restore");
    Schedule schedule;
    schedule.crashes = {{.slot = 12}, {.slot = 29}};
    schedule.checkpoint_every = 5;
    const auto result = run_checking_p3(fleet, env, &schedule);
    EXPECT_EQ(result.faults.crash_restarts, 2);
    EXPECT_GT(result.faults.checkpoints_taken, 1);
  }
  {
    SCOPED_TRACE("all groups down");
    Schedule schedule;
    for (std::size_t g = 0; g < 3; ++g) {
      schedule.outages.push_back(
          {.group = g, .begin = 5, .end = 7, .fraction = 1.0});
    }
    const auto result = run_checking_p3(fleet, env, &schedule);
    EXPECT_EQ(result.faults.shed_slots, 2);
  }
}

}  // namespace
}  // namespace coca

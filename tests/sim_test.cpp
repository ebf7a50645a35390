// Tests for the simulator, metrics accounting and scenario assembly.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/carbon_unaware.hpp"
#include "core/rec_policy.hpp"
#include "sim/scenario.hpp"
#include "util/moving_average.hpp"
#include "workload/transforms.hpp"

namespace coca::sim {
namespace {

ScenarioConfig small_config(std::size_t hours = 300) {
  ScenarioConfig config;
  config.hours = hours;
  config.fleet.total_servers = 20'000;
  config.fleet.group_count = 8;
  config.peak_rate = 100'000.0;
  return config;
}

TEST(Environment, ValidateCatchesMismatch) {
  using coca::workload::Trace;
  Environment env{Trace("w", {1.0, 2.0}), Trace("p", {1.0, 2.0}),
                  Trace("r", {0.0, 0.0}), Trace("w2", {0.1, 0.1}),
                  Trace("f", {0.0, 0.0})};
  EXPECT_NO_THROW(env.validate());
  env.price = Trace("short", {0.1});
  EXPECT_THROW(env.validate(), std::invalid_argument);
  Environment empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);
}

TEST(Environment, WithPlanningSwapsTrace) {
  const auto scenario = build_scenario(small_config(50));
  const auto planned = scenario.env.with_planning(
      coca::workload::overestimate(scenario.env.workload, 1.1));
  EXPECT_NEAR(planned.planning[10], scenario.env.workload[10] * 1.1, 1e-6);
  EXPECT_DOUBLE_EQ(planned.workload[10], scenario.env.workload[10]);
}

TEST(Metrics, AccountingIdentities) {
  Metrics m;
  for (int i = 0; i < 3; ++i) {
    SlotRecord r;
    r.electricity_cost = units::usd(10.0 * (i + 1));
    r.delay_cost = units::usd(1.0);
    r.total_cost = r.electricity_cost + r.delay_cost;
    r.brown_kwh = units::kwh(100.0);
    m.record(r);
  }
  EXPECT_DOUBLE_EQ(m.total_cost(), 63.0);
  EXPECT_DOUBLE_EQ(m.total_electricity_cost(), 60.0);
  EXPECT_DOUBLE_EQ(m.total_delay_cost(), 3.0);
  EXPECT_DOUBLE_EQ(m.average_cost(), 21.0);
  EXPECT_DOUBLE_EQ(m.total_brown_kwh(), 300.0);
  EXPECT_EQ(m.cost_series().size(), 3u);
}

TEST(Scenario, BuildsPaperShapedSetup) {
  const auto scenario = build_scenario(small_config(300));
  scenario.env.validate();
  EXPECT_EQ(scenario.env.slots(), 300u);
  // Budget = 92% of unaware usage.
  EXPECT_NEAR(scenario.budget.total_allowance(),
              0.92 * scenario.unaware_brown_kwh.value(),
              1e-6 * scenario.unaware_brown_kwh.value());
  // On-site ~20% of the reference energy.
  EXPECT_NEAR(scenario.env.onsite_kw.total(), 0.20 * scenario.reference_energy_kwh.value(),
              1e-6 * scenario.reference_energy_kwh.value());
  // Off-site / REC split 40/60.
  EXPECT_NEAR(scenario.budget.offsite().total() /
                  (scenario.budget.offsite().total() + scenario.budget.recs_kwh()),
              0.40, 1e-6);
}

TEST(Scenario, MsrWorkloadVariant) {
  auto config = small_config(336);
  config.workload = WorkloadKind::kMsrLike;
  const auto scenario = build_scenario(config);
  EXPECT_EQ(scenario.env.workload.size(), 336u);
  EXPECT_NEAR(scenario.env.workload.peak(), config.peak_rate,
              0.01 * config.peak_rate);
}

TEST(Simulator, BillsActualWorkloadNotPlanned) {
  const auto scenario = build_scenario(small_config(100));
  // Plan with 15% overestimation; bill the true trace.
  const auto env = scenario.env.with_planning(
      coca::workload::overestimate(scenario.env.workload, 1.15));
  const auto inflated = run_carbon_unaware(scenario.fleet, env, scenario.weights);
  const auto exact = run_carbon_unaware(scenario.fleet, scenario.env,
                                        scenario.weights);
  // Overestimation turns on extra capacity: less delay cost, more energy.
  EXPECT_GT(inflated.metrics.total_brown_kwh(), exact.metrics.total_brown_kwh());
  EXPECT_LT(inflated.metrics.total_delay_cost(), exact.metrics.total_delay_cost());
  // And the paper's claim: the total cost penalty is small.
  EXPECT_LT(inflated.metrics.total_cost(), exact.metrics.total_cost() * 1.10);
}

TEST(Simulator, SwitchingCostsBilledAndRecorded) {
  const auto scenario = build_scenario(small_config(100));
  SimOptions options;
  options.switching.kwh_per_toggle = 0.0231;
  baselines::CarbonUnawareController with_sw(scenario.fleet, scenario.weights);
  const auto charged = run_simulation(scenario.fleet, scenario.env, with_sw,
                                      scenario.weights, options);
  baselines::CarbonUnawareController without_sw(scenario.fleet, scenario.weights);
  const auto free = run_simulation(scenario.fleet, scenario.env, without_sw,
                                   scenario.weights);
  EXPECT_GT(charged.metrics.total_switching_kwh(), 0.0);
  EXPECT_GT(charged.metrics.total_brown_kwh(), free.metrics.total_brown_kwh());
  EXPECT_GT(charged.metrics.total_cost(), free.metrics.total_cost());
  // First slot turns the fleet on: toggles recorded.
  EXPECT_GT(charged.metrics.slots()[0].toggles, 0.0);
}

TEST(Simulator, DeficitSeriesConsistentWithBudget) {
  const auto scenario = build_scenario(small_config(200));
  const auto result = run_coca_constant_v(scenario, 1e4);
  const auto deficit = result.metrics.deficit_series(scenario.budget);
  ASSERT_EQ(deficit.size(), 200u);
  double sum = 0.0;
  for (double d : deficit) sum += d;
  EXPECT_NEAR(sum, result.metrics.total_brown_kwh() -
                       scenario.budget.total_allowance(),
              1e-6 * std::abs(sum) + 1e-6);
  EXPECT_NEAR(result.metrics.average_deficit(scenario.budget), sum / 200.0,
              1e-9 * std::abs(sum) + 1e-9);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto scenario = build_scenario(small_config(100));
  const auto a = run_coca_constant_v(scenario, 1e3);
  const auto b = run_coca_constant_v(scenario, 1e3);
  EXPECT_DOUBLE_EQ(a.metrics.total_cost(), b.metrics.total_cost());
  EXPECT_DOUBLE_EQ(a.metrics.total_brown_kwh(), b.metrics.total_brown_kwh());
}

TEST(Simulator, QueueSeriesRecordedForCoca) {
  const auto scenario = build_scenario(small_config(150));
  const auto result = run_coca_constant_v(scenario, 1.0);
  const auto queue = result.metrics.queue_series();
  double max_q = 0.0;
  for (double q : queue) max_q = std::max(max_q, q);
  EXPECT_GT(max_q, 0.0);  // the deficit queue was exercised
}

TEST(Simulator, DynamicRecSpendBilledIntoTotalCost) {
  // Regression: DynamicRecCocaController::spend_ used to be invisible to
  // sim::run_simulation — dynamic REC purchases were free as far as the
  // reported totals were concerned.  The simulator now bills each slot's
  // purchase into SlotRecord::rec_cost via controller diagnostics.
  const auto scenario = build_scenario(small_config(200));
  core::CocaConfig config;
  config.weights = scenario.weights;
  config.schedule = core::VSchedule::constant(100.0);
  config.alpha = scenario.budget.alpha();
  config.rec_per_slot = 0.0;  // fully dynamic procurement
  const double price = 0.006;
  core::RecMarketConfig market{
      coca::workload::Trace("rec", std::vector<double>(200, price)), 0.0,
      2'000.0};
  core::DynamicRecCocaController controller(scenario.fleet, config, market);
  const auto result = run_simulation(scenario.fleet, scenario.env, controller,
                                     scenario.weights);
  ASSERT_GT(controller.total_spend(), 0.0);  // the market was used
  EXPECT_NEAR(result.metrics.total_rec_cost(), controller.total_spend(),
              1e-9 * controller.total_spend() + 1e-12);
  EXPECT_NEAR(result.metrics.total_cost(),
              result.metrics.total_ops_cost() + controller.total_spend(),
              1e-9 * result.metrics.total_cost());
}

TEST(Simulator, RunningAverageSeriesSmoothens) {
  const auto scenario = build_scenario(small_config(200));
  const auto result = run_coca_constant_v(scenario, 1e4);
  const auto costs = result.metrics.cost_series();
  const auto running = util::running_average_series(costs);
  // The running average ends at the global average.
  EXPECT_NEAR(running.back(), result.metrics.average_cost(),
              1e-9 * running.back());
}

}  // namespace
}  // namespace coca::sim

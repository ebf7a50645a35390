// Tests for the paper's stated extensions, implemented in this repo:
//  * peak-power capping (Sec. 3.1: "additional constraints, such as peak
//    power ... can also be incorporated"),
//  * nonlinear convex electricity tariffs (Sec. 2.1),
//  * server-failure tolerance (Sec. 4.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>

#include "baselines/carbon_unaware.hpp"
#include "core/coca_controller.hpp"
#include "core/rec_policy.hpp"
#include "energy/tariff.hpp"
#include "opt/exhaustive_solver.hpp"
#include "opt/gsd.hpp"
#include "opt/tiered_solver.hpp"
#include "sim/scenario.hpp"

namespace coca {
namespace {

opt::SlotWeights test_weights() {
  opt::SlotWeights w;
  w.beta = 0.005;
  w.gamma = 0.9;
  return w;
}

dc::Fleet test_fleet() {
  return dc::make_default_fleet({.total_servers = 20'000,
                                 .group_count = 8,
                                 .generations = 4,
                                 .speed_spread = 0.18,
                                 .power_spread = 0.12});
}

// ---------- peak-power capping ----------

TEST(PowerCap, LooseCapIsFree) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = opt::LadderSolver().solve(fleet, input, test_weights());
  const auto capped = opt::solve_power_capped(
      fleet, input, test_weights(), base.outcome.facility_power_kw * 2.0);
  EXPECT_TRUE(capped.cap_met);
  EXPECT_DOUBLE_EQ(capped.multiplier, 0.0);
  EXPECT_NEAR(capped.solution.outcome.total_cost, base.outcome.total_cost, 1e-9);
}

TEST(PowerCap, BindingCapRespected) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = opt::LadderSolver().solve(fleet, input, test_weights());
  const double cap = base.outcome.facility_power_kw * 0.85;
  const auto capped = opt::solve_power_capped(fleet, input, test_weights(), cap);
  ASSERT_TRUE(capped.cap_met);
  EXPECT_LE(capped.solution.outcome.facility_power_kw, cap * (1.0 + 1e-6));
  EXPECT_GT(capped.multiplier, 0.0);
  EXPECT_GE(capped.solution.outcome.total_cost, base.outcome.total_cost);
}

TEST(PowerCap, ImpossibleCapDetected) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto capped = opt::solve_power_capped(fleet, input, test_weights(), 1.0);
  EXPECT_TRUE(capped.cap_dropped);
  EXPECT_FALSE(capped.cap_met);
}

TEST(PowerCap, CapBindsEvenWithAbundantRenewables) {
  // Peak power is about the facility feed, not the carbon account: a huge
  // on-site supply must not loosen the cap.
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 1e6, 0.06};
  const auto base = opt::LadderSolver().solve(fleet, input, test_weights());
  const double cap = base.outcome.facility_power_kw * 0.8;
  const auto capped = opt::solve_power_capped(fleet, input, test_weights(), cap);
  ASSERT_TRUE(capped.cap_met);
  EXPECT_LE(capped.solution.outcome.facility_power_kw, cap * (1.0 + 1e-6));
}

TEST(PowerCap, PowerPriceWeightMonotonicity) {
  // The underlying knob: facility power is nonincreasing in power_price.
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  double prev = 1e18;
  for (double xi : {0.0, 0.01, 0.1, 1.0, 10.0}) {
    auto w = test_weights();
    w.power_price = xi;
    const auto sol = opt::LadderSolver().solve(fleet, input, w);
    ASSERT_TRUE(sol.feasible);
    EXPECT_LE(sol.outcome.facility_power_kw, prev * (1.0 + 1e-9)) << xi;
    prev = sol.outcome.facility_power_kw;
  }
}

// ---------- tiered tariffs ----------

TEST(Tariff, FlatTariffIsLinear) {
  const auto flat = energy::TieredTariff::flat(0.08);
  EXPECT_DOUBLE_EQ(flat.cost(0.0), 0.0);
  EXPECT_DOUBLE_EQ(flat.cost(125.0), 10.0);
  EXPECT_DOUBLE_EQ(flat.marginal_price(1e9), 0.08);
}

TEST(Tariff, BlockBillingMatchesHandComputation) {
  const energy::TieredTariff tariff(
      {{100.0, 0.05}, {200.0, 0.10}, {energy::TieredTariff::Tier{}.upto_kwh, 0.20}});
  EXPECT_DOUBLE_EQ(tariff.cost(50.0), 2.5);
  EXPECT_DOUBLE_EQ(tariff.cost(100.0), 5.0);
  EXPECT_DOUBLE_EQ(tariff.cost(150.0), 10.0);
  EXPECT_DOUBLE_EQ(tariff.cost(250.0), 25.0);
  EXPECT_EQ(tariff.tier_of(150.0), 1u);
  EXPECT_DOUBLE_EQ(tariff.tier_floor(2), 200.0);
  EXPECT_DOUBLE_EQ(tariff.marginal_price(250.0), 0.20);
}

TEST(Tariff, ConvexityValidation) {
  using T = energy::TieredTariff;
  // Decreasing prices violate convexity.
  EXPECT_THROW(T({{100.0, 0.10}, {T::Tier{}.upto_kwh, 0.05}}),
               std::invalid_argument);
  // Final tier must be unbounded.
  EXPECT_THROW(T({{100.0, 0.05}}), std::invalid_argument);
  // Thresholds must increase.
  EXPECT_THROW(T({{100.0, 0.05}, {100.0, 0.06}, {T::Tier{}.upto_kwh, 0.07}}),
               std::invalid_argument);
  EXPECT_THROW(T({}), std::invalid_argument);
  EXPECT_THROW(T::flat(0.05).cost(-1.0), std::invalid_argument);
}

TEST(TieredSolver, FlatTariffMatchesBaseSolver) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = opt::LadderSolver().solve(fleet, input, test_weights());
  const auto tiered = opt::solve_tiered_slot(
      fleet, input, test_weights(), energy::TieredTariff::flat(0.06));
  ASSERT_TRUE(tiered.solution.feasible);
  EXPECT_NEAR(tiered.solution.outcome.total_cost, base.outcome.total_cost,
              1e-6 * base.outcome.total_cost);
  EXPECT_FALSE(tiered.boundary);
}

TEST(TieredSolver, ExpensiveUpperBlockCurbsUsage) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto flat = opt::solve_tiered_slot(fleet, input, test_weights(),
                                           energy::TieredTariff::flat(0.06));
  const double base_usage = flat.solution.outcome.brown_kwh;
  // Usage above 80% of the flat optimum costs 10x more.
  const energy::TieredTariff punitive(
      {{base_usage * 0.8, 0.06},
       {energy::TieredTariff::Tier{}.upto_kwh, 0.60}});
  const auto tiered = opt::solve_tiered_slot(fleet, input, test_weights(),
                                             punitive);
  ASSERT_TRUE(tiered.solution.feasible);
  EXPECT_LT(tiered.solution.outcome.brown_kwh, base_usage);
  // The bill must be the tariff's, not the linear price's.
  EXPECT_NEAR(tiered.solution.outcome.electricity_cost,
              punitive.cost(tiered.solution.outcome.brown_kwh), 1e-9);
}

TEST(TieredSolver, OptimumPinsAtBoundaryWhenJumpIsLarge) {
  const auto fleet = test_fleet();
  const opt::SlotInput input{50'000.0, 0.0, 0.06};
  const auto flat = opt::solve_tiered_slot(fleet, input, test_weights(),
                                           energy::TieredTariff::flat(0.06));
  const double base_usage = flat.solution.outcome.brown_kwh;
  const energy::TieredTariff jumpy(
      {{base_usage * 0.9, 0.06},
       {energy::TieredTariff::Tier{}.upto_kwh, 5.0}});
  const auto tiered = opt::solve_tiered_slot(fleet, input, test_weights(), jumpy);
  ASSERT_TRUE(tiered.solution.feasible);
  // With a brutal second block the optimum should sit at (or below) the
  // boundary rather than inside the expensive tier.
  EXPECT_LE(tiered.solution.outcome.brown_kwh, base_usage * 0.9 * (1.0 + 1e-6));
}

TEST(TieredSolver, NeverWorseThanAnyFixedTierPrice) {
  // Exactness property: the tiered optimum's true bill is <= the true bill
  // of every single-price solution.
  const auto fleet = test_fleet();
  const opt::SlotInput input{40'000.0, 0.0, 0.06};
  const energy::TieredTariff tariff(
      {{2'000.0, 0.04}, {6'000.0, 0.09},
       {energy::TieredTariff::Tier{}.upto_kwh, 0.18}});
  const auto tiered = opt::solve_tiered_slot(fleet, input, test_weights(), tariff);
  ASSERT_TRUE(tiered.solution.feasible);
  for (std::size_t k = 0; k < tariff.tier_count(); ++k) {
    opt::SlotInput probe = input;
    probe.price = tariff.tier(k).price;
    const auto fixed = opt::LadderSolver().solve(fleet, probe, test_weights());
    const double true_cost = tariff.cost(fixed.outcome.brown_kwh) +
                             fixed.outcome.delay_cost;
    EXPECT_LE(tiered.solution.outcome.total_cost, true_cost * (1.0 + 1e-9))
        << "tier " << k;
  }
}

// ---------- failure injection ----------

TEST(Failures, DegradedFleetShrinksCapacity) {
  const auto fleet = dc::make_homogeneous_fleet(3, 10);
  const auto degraded = dc::degraded_fleet(fleet, {0, 5, 10});
  EXPECT_EQ(degraded.group_count(), 3u);
  EXPECT_EQ(degraded.total_servers(), 15u);
  EXPECT_EQ(degraded.group(2).server_count(), 0u);
  EXPECT_THROW(dc::degraded_fleet(fleet, {0, 0}), std::invalid_argument);
  EXPECT_THROW(dc::degraded_fleet(fleet, {0, 0, 11}), std::invalid_argument);
}

TEST(Failures, SolversSkipDeadGroups) {
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 10'000, .group_count = 5, .generations = 2,
       .speed_spread = 0.18, .power_spread = 0.12});
  const auto degraded = dc::degraded_fleet(fleet, {0, 2'000, 0, 2'000, 0});
  const opt::SlotInput input{20'000.0, 0.0, 0.06};
  const auto sol = opt::LadderSolver().solve(degraded, input, test_weights());
  ASSERT_TRUE(sol.feasible);
  EXPECT_DOUBLE_EQ(sol.alloc[1].active, 0.0);
  EXPECT_DOUBLE_EQ(sol.alloc[1].load, 0.0);
  EXPECT_DOUBLE_EQ(sol.alloc[3].active, 0.0);
  EXPECT_NEAR(dc::total_load(sol.alloc), 20'000.0, 1e-3);
}

TEST(Failures, GsdRunsOnDegradedFleet) {
  // Sec. 4.2: "only functioning servers need to participate in GSD".
  const auto fleet = dc::make_homogeneous_fleet(3, 4);
  const auto degraded = dc::degraded_fleet(fleet, {0, 4, 1});
  const opt::SlotInput input{20.0, 0.0, 0.06};
  opt::GsdConfig config;
  config.iterations = 800;
  config.delta = 1e4;
  config.seed = 6;
  const auto result =
      opt::GsdSolver(config).solve(degraded, input, test_weights());
  ASSERT_TRUE(result.best.feasible);
  EXPECT_DOUBLE_EQ(result.best.alloc[1].active, 0.0);
  const auto exact = opt::ExhaustiveSolver().solve(degraded, input, test_weights());
  EXPECT_LE(result.best.outcome.objective, exact.outcome.objective * 1.02);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-for-bit equality of two slot solutions: allocation, outcome, regime
/// and effective price.
bool same_solution(const opt::SlotSolution& a, const opt::SlotSolution& b) {
  if (a.alloc.size() != b.alloc.size()) return false;
  for (std::size_t g = 0; g < a.alloc.size(); ++g) {
    if (a.alloc[g].level != b.alloc[g].level ||
        !same_bits(a.alloc[g].active, b.alloc[g].active) ||
        !same_bits(a.alloc[g].load, b.alloc[g].load)) {
      return false;
    }
  }
  const auto& x = a.outcome;
  const auto& y = b.outcome;
  return same_bits(x.it_power_kw, y.it_power_kw) &&
         same_bits(x.facility_power_kw, y.facility_power_kw) &&
         same_bits(x.brown_kwh, y.brown_kwh) &&
         same_bits(x.electricity_cost, y.electricity_cost) &&
         same_bits(x.delay_jobs, y.delay_jobs) &&
         same_bits(x.delay_cost, y.delay_cost) &&
         same_bits(x.total_cost, y.total_cost) &&
         same_bits(x.objective, y.objective) && x.feasible == y.feasible &&
         x.infeasible_reason == y.infeasible_reason && a.regime == b.regime &&
         same_bits(a.effective_price, b.effective_price) &&
         a.feasible == b.feasible;
}

sim::Scenario failure_scenario() {
  sim::ScenarioConfig config;
  config.hours = 200;
  config.fleet.total_servers = 20'000;
  config.fleet.group_count = 8;
  config.peak_rate = 100'000.0;
  return sim::build_scenario(config);
}

/// A copy of `fleet` with groups 0 and 1 failed outright.
dc::Fleet lose_first_two_groups(const dc::Fleet& fleet) {
  std::vector<std::size_t> failures(fleet.group_count(), 0);
  for (std::size_t g = 0; g < 2; ++g) failures[g] = fleet.group(g).server_count();
  return dc::degraded_fleet(fleet, failures);
}

core::CocaConfig failure_coca_config(const sim::Scenario& scenario) {
  core::CocaConfig coca_config;
  coca_config.weights = scenario.weights;
  coca_config.schedule = core::VSchedule::constant(1e4);
  coca_config.alpha = scenario.budget.alpha();
  coca_config.rec_per_slot = scenario.budget.rec_per_slot();
  return coca_config;
}

struct FailureRun {
  double cost = 0.0;
  std::size_t infeasible = 0;
  std::vector<double> brown_kwh;  ///< billed brown energy of each observed slot
  std::vector<double> queue_kwh;  ///< the controller's q right after it
};

/// Runs `controller` for 200 slots: groups 0 and 1 fail at t = 100
/// (set_fleet(degraded)) and return at t = 150 (set_fleet back).  Every plan
/// must equal, bit for bit, a stateless ladder solve on the fleet active at
/// that slot with the weights `weights_at()` reports right after the plan
/// (the controller's V and q), so fleet-bound solver state can never lag a
/// hot-swap.
FailureRun run_failure_and_repair(
    core::SlotController& controller, const sim::Scenario& scenario,
    const dc::Fleet& degraded,
    const std::function<opt::SlotWeights()>& weights_at) {
  FailureRun run;
  for (std::size_t t = 0; t < 200; ++t) {
    if (t == 100) controller.set_fleet(degraded);
    if (t == 150) controller.set_fleet(scenario.fleet);
    const bool down = t >= 100 && t < 150;
    const dc::Fleet& active = down ? degraded : scenario.fleet;
    const opt::SlotInput input{scenario.env.workload[t],
                               scenario.env.onsite_kw[t],
                               scenario.env.price[t]};
    const auto plan = controller.plan(t, input);
    EXPECT_TRUE(same_solution(
        plan, opt::LadderSolver().solve(active, input, weights_at())))
        << controller.name() << " slot " << t;
    if (!plan.feasible) {
      ++run.infeasible;
      continue;
    }
    // Dead groups must never carry load while they are down.
    if (down) {
      EXPECT_DOUBLE_EQ(plan.alloc[0].active, 0.0);
      EXPECT_DOUBLE_EQ(plan.alloc[1].active, 0.0);
    }
    run.cost += plan.outcome.total_cost;
    controller.observe(t, plan.outcome, scenario.env.offsite_kwh[t]);
    run.brown_kwh.push_back(plan.outcome.brown_kwh);
    run.queue_kwh.push_back(controller.diagnostic_queue_length());
  }
  return run;
}

TEST(Failures, CocaSurvivesMidRunCapacityLoss) {
  // A quarter of the fleet fails mid-run and is repaired later; the
  // controller keeps its queue and continues on whichever fleet is live
  // (set_fleet hot-swap).
  const auto scenario = failure_scenario();
  const auto degraded = lose_first_two_groups(scenario.fleet);
  const auto coca_config = failure_coca_config(scenario);

  core::CocaController controller(scenario.fleet, coca_config);
  const auto run = run_failure_and_repair(
      controller, scenario, degraded, [&] {
        opt::SlotWeights w = coca_config.weights;
        w.V = 1e4;
        w.q = controller.queue_length();
        return w;
      });
  EXPECT_EQ(run.infeasible, 0u);
  EXPECT_GT(run.cost, 0.0);
  // Every slot's billed outcome reached the queue, in order: replaying the
  // 200 observations through Eq. 17 gives the controller's q after each.
  ASSERT_EQ(run.queue_kwh.size(), 200u);
  core::CarbonDeficitQueue replay;
  double peak_q = 0.0;
  for (std::size_t t = 0; t < 200; ++t) {
    replay.update(run.brown_kwh[t], scenario.env.offsite_kwh[t],
                  coca_config.alpha, coca_config.rec_per_slot);
    EXPECT_EQ(run.queue_kwh[t], replay.length()) << "slot " << t;
    peak_q = std::max(peak_q, replay.length());
  }
  EXPECT_GT(peak_q, 0.0);

  // The other ladder-driven controllers follow the fleet the same way.
  core::RecMarketConfig market{
      workload::Trace("rec", std::vector<double>(200, 0.01)), 0.0, 2'000.0};
  core::DynamicRecCocaController dynamic(scenario.fleet, coca_config, market);
  const auto dynamic_run = run_failure_and_repair(
      dynamic, scenario, degraded, [&] {
        opt::SlotWeights w = coca_config.weights;
        w.V = 1e4;
        w.q = dynamic.queue_length();
        return w;
      });
  EXPECT_EQ(dynamic_run.infeasible, 0u);

  baselines::CarbonUnawareController unaware(scenario.fleet, scenario.weights);
  const auto unaware_run = run_failure_and_repair(
      unaware, scenario, degraded, [&] {
        opt::SlotWeights w = scenario.weights;
        w.V = 1.0;
        w.q = 0.0;
        return w;
      });
  EXPECT_EQ(unaware_run.infeasible, 0u);
}

TEST(Failures, ControllersFollowAFleetReplacedInTheSameStorage) {
  // A second fleet with different specs is built where the first one lived;
  // solver state keyed by the fleet's address would go stale here.
  const auto scenario = failure_scenario();
  const auto coca_config = failure_coca_config(scenario);
  std::optional<dc::Fleet> storage;
  storage.emplace(dc::make_default_fleet({.total_servers = 20'000,
                                          .group_count = 8,
                                          .generations = 4}));
  core::CocaController coca(*storage, coca_config);
  baselines::CarbonUnawareController unaware(*storage, scenario.weights);
  const opt::SlotInput input{scenario.env.workload[10],
                             scenario.env.onsite_kw[10],
                             scenario.env.price[10]};
  opt::SlotWeights coca_weights = coca_config.weights;
  coca_weights.V = 1e4;
  opt::SlotWeights unaware_weights = scenario.weights;
  unaware_weights.V = 1.0;
  unaware_weights.q = 0.0;
  for (const std::size_t generations : {4u, 8u, 2u}) {
    SCOPED_TRACE(generations);
    const dc::Fleet* before = &*storage;
    storage.reset();
    storage.emplace(dc::make_default_fleet({.total_servers = 24'000,
                                            .group_count = 8,
                                            .generations = generations,
                                            .speed_spread = 0.3,
                                            .power_spread = 0.2}));
    ASSERT_EQ(&*storage, before);  // same address, different fleet
    coca.set_fleet(*storage);
    unaware.set_fleet(*storage);
    const auto coca_plan = coca.plan(0, input);
    coca_weights.q = coca.queue_length();
    EXPECT_TRUE(same_solution(
        coca_plan, opt::LadderSolver().solve(*storage, input, coca_weights)));
    EXPECT_TRUE(same_solution(
        unaware.plan(0, input),
        opt::LadderSolver().solve(*storage, input, unaware_weights)));
  }
}

}  // namespace
}  // namespace coca

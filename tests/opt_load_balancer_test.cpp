// Tests for the dual-decomposition load balancer: feasibility, KKT
// optimality against brute force, the renewable kink regimes, and
// parameterized property sweeps.

#include "opt/load_balancer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace coca::opt {
namespace {

dc::Fleet two_group_fleet() {
  // Group 0: reference spec; group 1: older, slower, hungrier.
  const auto reference = dc::ServerSpec::opteron2380();
  std::vector<dc::ServerGroup> groups;
  groups.emplace_back(reference, 5);
  groups.emplace_back(reference.scaled("old", 0.8, 1.15), 5);
  return dc::Fleet(std::move(groups));
}

dc::Allocation both_on(const dc::Fleet& fleet, std::size_t level,
                       double active) {
  dc::Allocation alloc(fleet.group_count());
  for (auto& a : alloc) {
    a.level = level;
    a.active = active;
  }
  return alloc;
}

SlotWeights default_weights() {
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  return w;
}

TEST(LoadBalancer, LoadsSumToLambdaAndRespectCaps) {
  const auto fleet = two_group_fleet();
  auto alloc = both_on(fleet, 3, 5.0);
  const SlotInput input{60.0, 0.0, 0.06};
  const auto result = balance_loads(fleet, alloc, input, default_weights());
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(dc::total_load(alloc), 60.0, 1e-6);
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    const double cap = 0.9 * fleet.group(g).spec().level(3).service_rate *
                       alloc[g].active;
    ASSERT_LE(alloc[g].load, cap * (1.0 + 1e-9));
    ASSERT_GE(alloc[g].load, 0.0);
  }
}

TEST(LoadBalancer, FacilityPowerAppliesPue) {
  // One idle server at 140 W: facility power is PUE times IT power.
  const auto fleet = dc::make_homogeneous_fleet(2, 10);
  dc::Allocation alloc(2);
  alloc[0] = {3, 1.0, 0.0};
  EXPECT_NEAR(allocation_facility_kw(fleet, alloc, 1.5), 1.5 * 0.140, 1e-12);
}

TEST(LoadBalancer, HomogeneousServersShareEqually) {
  const auto fleet = dc::make_homogeneous_fleet(3, 4);
  auto alloc = both_on(fleet, 3, 4.0);
  const SlotInput input{60.0, 0.0, 0.06};
  const auto result = balance_loads(fleet, alloc, input, default_weights());
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(alloc[0].load, 20.0, 1e-6);
  EXPECT_NEAR(alloc[1].load, 20.0, 1e-6);
  EXPECT_NEAR(alloc[2].load, 20.0, 1e-6);
}

TEST(LoadBalancer, FasterServersCarryMoreLoad) {
  const auto fleet = two_group_fleet();
  auto alloc = both_on(fleet, 3, 5.0);
  const SlotInput input{50.0, 0.0, 0.06};
  balance_loads(fleet, alloc, input, default_weights());
  // Group 0 is faster and cheaper per request: it must take more.
  EXPECT_GT(alloc[0].load, alloc[1].load);
}

TEST(LoadBalancer, ZeroLambdaGivesZeroLoads) {
  const auto fleet = two_group_fleet();
  auto alloc = both_on(fleet, 3, 5.0);
  const SlotInput input{0.0, 0.0, 0.06};
  const auto result = balance_loads(fleet, alloc, input, default_weights());
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(dc::total_load(alloc), 0.0);
}

TEST(LoadBalancer, InfeasibleWhenCapacityShort) {
  const auto fleet = two_group_fleet();
  auto alloc = both_on(fleet, 3, 1.0);  // capped capacity = 0.9*(10+8) = 16.2
  const SlotInput input{50.0, 0.0, 0.06};
  const auto result = balance_loads(fleet, alloc, input, default_weights());
  EXPECT_FALSE(result.feasible);
}

TEST(LoadBalancer, KktStationarityAtInteriorOptimum) {
  // At an interior optimum, marginal costs mu*c + V*beta*x/(x-a)^2 equal nu
  // across loaded server classes.
  const auto fleet = two_group_fleet();
  auto alloc = both_on(fleet, 3, 5.0);
  const SlotInput input{40.0, 0.0, 0.06};
  const auto w = default_weights();
  const auto result = balance_loads(fleet, alloc, input, w);
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.regime, PowerRegime::kGridDraw);
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    if (alloc[g].load <= 1e-9) continue;
    const auto& spec = fleet.group(g).spec();
    const double x = spec.level(alloc[g].level).service_rate;
    const double a = alloc[g].load / alloc[g].active;
    if (a >= 0.9 * x - 1e-6) continue;  // clamped at the cap
    const double marginal = result.effective_price * spec.dynamic_slope(3) +
                            w.V * w.beta * x / ((x - a) * (x - a));
    EXPECT_NEAR(marginal, result.nu, 1e-4 * result.nu) << "group " << g;
  }
}

TEST(LoadBalancer, BeatsRandomFeasibleSplits) {
  // Optimality spot-check: the balanced objective is no worse than many
  // hand-rolled feasible alternatives.
  const auto fleet = two_group_fleet();
  const SlotInput input{45.0, 0.0, 0.08};
  const auto w = default_weights();
  auto optimal = both_on(fleet, 3, 5.0);
  const auto result = balance_loads(fleet, optimal, input, w);
  ASSERT_TRUE(result.feasible);
  for (double share0 : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    auto candidate = both_on(fleet, 3, 5.0);
    candidate[0].load = 45.0 * share0;
    candidate[1].load = 45.0 * (1.0 - share0);
    const auto outcome = evaluate(fleet, candidate, input, w);
    if (!outcome.feasible) continue;
    EXPECT_GE(outcome.objective, result.outcome.objective - 1e-6);
  }
}

TEST(LoadBalancer, RenewableRegimeWhenOnsiteAbundant) {
  const auto fleet = two_group_fleet();
  auto alloc = both_on(fleet, 3, 5.0);
  // On-site supply far above any feasible power draw.
  const SlotInput input{40.0, 1e4, 0.06};
  const auto result = balance_loads(fleet, alloc, input, default_weights());
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.regime, PowerRegime::kRenewable);
  EXPECT_DOUBLE_EQ(result.outcome.electricity_cost, 0.0);
  EXPECT_DOUBLE_EQ(result.outcome.brown_kwh, 0.0);
}

TEST(LoadBalancer, GridDrawRegimeWhenNoRenewables) {
  const auto fleet = two_group_fleet();
  auto alloc = both_on(fleet, 3, 5.0);
  const SlotInput input{40.0, 0.0, 0.06};
  const auto result = balance_loads(fleet, alloc, input, default_weights());
  EXPECT_EQ(result.regime, PowerRegime::kGridDraw);
  EXPECT_GT(result.outcome.brown_kwh, 0.0);
}

TEST(LoadBalancer, BoundaryRegimePinsPowerToOnsite) {
  const auto fleet = two_group_fleet();
  auto alloc = both_on(fleet, 3, 5.0);
  const auto w = default_weights();

  // Find the power range: regime A power (grid) and regime B power (free).
  auto probe = alloc;
  balance_loads_linear(fleet, probe, 40.0, w.brown_price(0.06), w);
  const double power_a = allocation_facility_kw(fleet, probe, w.pue);
  balance_loads_linear(fleet, probe, 40.0, 0.0, w);
  const double power_b = allocation_facility_kw(fleet, probe, w.pue);
  ASSERT_LT(power_a, power_b);

  // Put the on-site supply strictly between: the optimum must pin to it.
  const double onsite = 0.5 * (power_a + power_b);
  const SlotInput input{40.0, onsite, 0.06};
  const auto result = balance_loads(fleet, alloc, input, w);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.regime, PowerRegime::kBoundary);
  EXPECT_NEAR(result.outcome.facility_power_kw, onsite, 1e-2 * onsite);
  EXPECT_NEAR(result.outcome.brown_kwh, 0.0, 1e-2 * onsite);
}

TEST(LoadBalancerLinear, HigherEnergyPriceNeverIncreasesPower) {
  const auto fleet = two_group_fleet();
  const auto w = default_weights();
  double prev_power = 1e18;
  for (double mu : {0.0, 0.05, 0.2, 1.0, 10.0, 1000.0}) {
    auto alloc = both_on(fleet, 3, 5.0);
    const double nu = balance_loads_linear(fleet, alloc, 40.0, mu, w);
    ASSERT_GE(nu, 0.0);
    const double power = allocation_facility_kw(fleet, alloc, w.pue);
    EXPECT_LE(power, prev_power * (1.0 + 1e-9)) << "mu = " << mu;
    prev_power = power;
  }
}

TEST(LoadBalancerLinear, ZeroDelayWeightFillsCheapestFirst) {
  const auto fleet = two_group_fleet();
  auto w = default_weights();
  w.beta = 0.0;
  auto alloc = both_on(fleet, 3, 5.0);
  const double nu = balance_loads_linear(fleet, alloc, 30.0, 0.1, w);
  ASSERT_GE(nu, 0.0);
  // Group 0 (cheaper slope) must be filled to its cap before group 1 gets
  // anything: cap = 0.9 * 10 * 5 = 45 > 30, so everything lands on group 0.
  EXPECT_NEAR(alloc[0].load, 30.0, 1e-6);
  EXPECT_NEAR(alloc[1].load, 0.0, 1e-6);
}

// --- edge cases: degenerate fleets, saturated caps, exact kink point ---

TEST(LoadBalancer, SingleServerFleetZeroLambda) {
  const auto fleet = dc::make_homogeneous_fleet(1, 1);
  auto alloc = both_on(fleet, 3, 1.0);
  const SlotInput input{0.0, 0.0, 0.06};
  const auto result = balance_loads(fleet, alloc, input, default_weights());
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(alloc[0].load, 0.0);
  EXPECT_DOUBLE_EQ(result.outcome.delay_cost, 0.0);
}

TEST(LoadBalancer, SingleServerFleetCarriesEverything) {
  const auto fleet = dc::make_homogeneous_fleet(1, 1);
  auto alloc = both_on(fleet, 3, 1.0);
  const double rate = fleet.group(0).spec().level(3).service_rate;
  const SlotInput input{0.5 * rate, 0.0, 0.06};
  const auto result = balance_loads(fleet, alloc, input, default_weights());
  ASSERT_TRUE(result.feasible);
  // With one server there is nothing to balance: the whole lambda lands on
  // it and the dual price is the marginal cost at that operating point.
  EXPECT_NEAR(alloc[0].load, 0.5 * rate, 1e-9 * rate);
  EXPECT_GT(result.nu, 0.0);
}

TEST(LoadBalancer, GammaSaturatedClampFillsEveryCap) {
  const auto fleet = two_group_fleet();
  auto alloc = both_on(fleet, 3, 5.0);
  const auto w = default_weights();
  // Lambda exactly at the capped capacity: every server class must sit at
  // its gamma*x clamp and the solution stays feasible.
  const double capacity = dc::capped_capacity(fleet, alloc, w.gamma);
  const SlotInput input{capacity, 0.0, 0.06};
  const auto result = balance_loads(fleet, alloc, input, w);
  ASSERT_TRUE(result.feasible);
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    const double cap = w.gamma * fleet.group(g).spec().level(3).service_rate *
                       alloc[g].active;
    EXPECT_NEAR(alloc[g].load, cap, 1e-6 * cap) << "group " << g;
  }
  // One epsilon past the caps the problem has no feasible point.
  auto over = both_on(fleet, 3, 5.0);
  const SlotInput too_much{capacity * (1.0 + 1e-6), 0.0, 0.06};
  EXPECT_FALSE(balance_loads(fleet, over, too_much, w).feasible);
}

TEST(LoadBalancer, ExactlyBalancedPowerResolvesAsGridDraw) {
  // The [p - r]^+ kink at exactly p == r: set the on-site supply to the
  // regime-A facility power bit-for-bit.  The regime-A acceptance test
  // p_a >= r*(1 - 1e-9) then holds with equality, so the solver must take
  // the kGridDraw branch (no boundary bisection) and report ~zero brown
  // energy.
  const auto fleet = two_group_fleet();
  const auto w = default_weights();
  auto probe = both_on(fleet, 3, 5.0);
  const double nu_a =
      balance_loads_linear(fleet, probe, 40.0, w.brown_price(0.06), w);
  ASSERT_GE(nu_a, 0.0);
  const double power_a = allocation_facility_kw(fleet, probe, w.pue);

  auto alloc = both_on(fleet, 3, 5.0);
  const SlotInput input{40.0, power_a, 0.06};
  const auto result = balance_loads(fleet, alloc, input, w);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.regime, PowerRegime::kGridDraw);
  EXPECT_EQ(result.nu, nu_a);  // same bisection bracket, same dual point
  EXPECT_NEAR(result.outcome.brown_kwh, 0.0, 1e-6 * power_a);
}

// --- property sweep over lambda and prices ---

struct BalanceCase {
  double lambda;
  double price;
  double onsite;
};

class BalanceSweep : public ::testing::TestWithParam<BalanceCase> {};

TEST_P(BalanceSweep, FeasibleExactAndConsistent) {
  const auto fleet = two_group_fleet();
  auto alloc = both_on(fleet, 3, 5.0);
  const auto& p = GetParam();
  const SlotInput input{p.lambda, p.onsite, p.price};
  const auto w = default_weights();
  const auto result = balance_loads(fleet, alloc, input, w);
  ASSERT_TRUE(result.feasible);
  EXPECT_NEAR(dc::total_load(alloc), p.lambda, 1e-6 * std::max(1.0, p.lambda));
  const auto outcome = evaluate(fleet, alloc, input, w);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_NEAR(outcome.objective, result.outcome.objective,
              1e-9 * std::max(1.0, outcome.objective));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BalanceSweep,
    ::testing::Values(BalanceCase{1.0, 0.02, 0.0}, BalanceCase{10.0, 0.06, 0.0},
                      BalanceCase{40.0, 0.12, 0.0}, BalanceCase{75.0, 0.06, 0.0},
                      BalanceCase{40.0, 0.06, 1.0}, BalanceCase{40.0, 0.06, 2.5},
                      BalanceCase{75.0, 0.3, 1.5}, BalanceCase{5.0, 0.01, 3.0}));

}  // namespace
}  // namespace coca::opt

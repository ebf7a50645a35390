// Tests for the ladder slot solver: optimality against exhaustive search on
// small fleets, monotone energy response to the deficit price, regime
// handling, and structural properties of the provisioning.

#include "opt/ladder_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "opt/exhaustive_solver.hpp"

namespace coca::opt {
namespace {

SlotWeights weights_with(double v, double q, double beta = 0.01) {
  SlotWeights w;
  w.V = v;
  w.q = q;
  w.beta = beta;
  w.gamma = 0.9;
  return w;
}

TEST(LadderSolver, ZeroLambdaTurnsEverythingOff) {
  const auto fleet = dc::make_homogeneous_fleet(3, 100);
  const auto sol = LadderSolver().solve(fleet, {0.0, 0.0, 0.06},
                                        weights_with(1.0, 0.0));
  ASSERT_TRUE(sol.feasible);
  EXPECT_DOUBLE_EQ(dc::total_active_servers(sol.alloc), 0.0);
  EXPECT_DOUBLE_EQ(sol.outcome.total_cost, 0.0);
}

TEST(LadderSolver, InfeasibleWhenLambdaExceedsCapacity) {
  const auto fleet = dc::make_homogeneous_fleet(2, 10);
  const auto sol = LadderSolver().solve(fleet, {500.0, 0.0, 0.06},
                                        weights_with(1.0, 0.0));
  EXPECT_FALSE(sol.feasible);
  EXPECT_FALSE(sol.outcome.feasible);
}

TEST(LadderSolver, ServesLambdaExactly) {
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 10'000, .group_count = 8, .generations = 4,
       .speed_spread = 0.18, .power_spread = 0.12});
  for (double lambda : {100.0, 5'000.0, 40'000.0, 80'000.0}) {
    const auto sol = LadderSolver().solve(fleet, {lambda, 0.0, 0.06},
                                          weights_with(1.0, 0.0, 0.005));
    ASSERT_TRUE(sol.feasible) << "lambda " << lambda;
    EXPECT_NEAR(dc::total_load(sol.alloc), lambda, 1e-6 * lambda);
  }
}

TEST(LadderSolver, BrownEnergyNonIncreasingInQ) {
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 50'000, .group_count = 10, .generations = 4,
       .speed_spread = 0.18, .power_spread = 0.12});
  double prev = 1e18;
  for (double q : {0.0, 1.0, 10.0, 100.0, 1'000.0, 10'000.0}) {
    const auto sol = LadderSolver().solve(fleet, {150'000.0, 0.0, 0.06},
                                          weights_with(1.0, q, 0.005));
    ASSERT_TRUE(sol.feasible);
    EXPECT_LE(sol.outcome.brown_kwh, prev * (1.0 + 1e-9)) << "q = " << q;
    prev = sol.outcome.brown_kwh;
  }
}

TEST(LadderSolver, CostNonDecreasingInQ) {
  // As the deficit price rises, the *true* cost g of the chosen decision can
  // only go up (the solver sacrifices cost to save energy).
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 50'000, .group_count = 10, .generations = 4,
       .speed_spread = 0.18, .power_spread = 0.12});
  double prev = 0.0;
  for (double q : {0.0, 10.0, 1'000.0, 100'000.0}) {
    const auto sol = LadderSolver().solve(fleet, {150'000.0, 0.0, 0.06},
                                          weights_with(1.0, q, 0.005));
    ASSERT_TRUE(sol.feasible);
    EXPECT_GE(sol.outcome.total_cost, prev * (1.0 - 1e-6)) << "q = " << q;
    prev = sol.outcome.total_cost;
  }
}

TEST(LadderSolver, HighEnergyPriceConcentratesOnFewerServers) {
  const auto fleet = dc::make_homogeneous_fleet(5, 2'000);
  const auto cheap = LadderSolver().solve(fleet, {40'000.0, 0.0, 0.06},
                                          weights_with(1.0, 0.0, 0.005));
  const auto pricey = LadderSolver().solve(fleet, {40'000.0, 0.0, 0.06},
                                           weights_with(1.0, 1'000.0, 0.005));
  ASSERT_TRUE(cheap.feasible);
  ASSERT_TRUE(pricey.feasible);
  EXPECT_LT(dc::total_active_servers(pricey.alloc),
            dc::total_active_servers(cheap.alloc));
}

TEST(LadderSolver, RenewableRegimeWithAbundantOnsite) {
  const auto fleet = dc::make_homogeneous_fleet(4, 500);
  const auto sol = LadderSolver().solve(fleet, {5'000.0, 1e6, 0.06},
                                        weights_with(1.0, 50.0, 0.01));
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.regime, PowerRegime::kRenewable);
  EXPECT_DOUBLE_EQ(sol.outcome.brown_kwh, 0.0);
  // Free energy: everything turns on to minimize delay.
  EXPECT_DOUBLE_EQ(dc::total_active_servers(sol.alloc), 2'000.0);
}

TEST(LadderSolver, BoundaryRegimeTracksOnsiteSupply) {
  const auto fleet = dc::make_homogeneous_fleet(4, 500);
  const auto w = weights_with(1.0, 50.0, 0.01);
  const auto grid = LadderSolver().solve(fleet, {5'000.0, 0.0, 0.06}, w);
  const auto free = LadderSolver().solve(fleet, {5'000.0, 1e6, 0.06}, w);
  ASSERT_LT(grid.outcome.facility_power_kw, free.outcome.facility_power_kw);
  const double onsite = 0.5 * (grid.outcome.facility_power_kw +
                               free.outcome.facility_power_kw);
  const auto sol = LadderSolver().solve(fleet, {5'000.0, onsite, 0.06}, w);
  ASSERT_TRUE(sol.feasible);
  EXPECT_NEAR(sol.outcome.facility_power_kw, onsite, 0.02 * onsite);
}

TEST(LadderSolver, IntegerCountsAreIntegral) {
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 1'000, .group_count = 5, .generations = 2,
       .speed_spread = 0.18, .power_spread = 0.12});
  const auto sol = LadderSolver().solve(fleet, {2'000.0, 0.0, 0.06},
                                        weights_with(1.0, 5.0, 0.01));
  ASSERT_TRUE(sol.feasible);
  for (const auto& a : sol.alloc) {
    EXPECT_DOUBLE_EQ(a.active, std::round(a.active));
  }
}

TEST(LadderSolver, PreferredGenerationsActivatedFirst) {
  // Under energy pressure, newer (faster, leaner) generations should carry
  // the load; the oldest generation should be (mostly) off.
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 40'000, .group_count = 8, .generations = 4,
       .speed_spread = 0.25, .power_spread = 0.25});
  const auto sol = LadderSolver().solve(fleet, {60'000.0, 0.0, 0.06},
                                        weights_with(1.0, 500.0, 0.002));
  ASSERT_TRUE(sol.feasible);
  double newest_active = 0.0, oldest_active = 0.0;
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    if (g % 4 == 0) newest_active += sol.alloc[g].active;
    if (g % 4 == 3) oldest_active += sol.alloc[g].active;
  }
  EXPECT_GT(newest_active, oldest_active);
}

// --- optimality against exhaustive search on small instances ---

struct SmallCase {
  double lambda;
  double price;
  double onsite;
  double q;
};

class LadderVsExhaustive : public ::testing::TestWithParam<SmallCase> {};

TEST_P(LadderVsExhaustive, WithinToleranceOfGlobalOptimum) {
  // 2 groups x 3 servers: exhaustive search is exact ground truth.
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 6, .group_count = 2, .generations = 2,
       .speed_spread = 0.2, .power_spread = 0.15});
  const auto& p = GetParam();
  const SlotInput input{p.lambda, p.onsite, p.price};
  const auto w = weights_with(1.0, p.q, 0.01);

  const auto exact = ExhaustiveSolver().solve(fleet, input, w);
  LadderConfig polish;
  polish.polish_passes = 3;
  polish.polish_count_step = 0.34;
  const auto ladder = LadderSolver(polish).solve(fleet, input, w);

  ASSERT_TRUE(exact.feasible);
  ASSERT_TRUE(ladder.feasible);
  // Tiny fleets are the worst case for the continuous relaxation (one
  // server is 17% of a group); polish closes most of the gap.
  EXPECT_LE(ladder.outcome.objective, exact.outcome.objective * 1.10 + 1e-9);
  EXPECT_GE(ladder.outcome.objective, exact.outcome.objective * (1.0 - 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LadderVsExhaustive,
    ::testing::Values(SmallCase{5.0, 0.06, 0.0, 0.0},
                      SmallCase{20.0, 0.06, 0.0, 0.0},
                      SmallCase{40.0, 0.06, 0.0, 0.0},
                      SmallCase{20.0, 0.30, 0.0, 0.0},
                      SmallCase{20.0, 0.06, 0.0, 5.0},
                      SmallCase{20.0, 0.06, 0.0, 100.0},
                      SmallCase{20.0, 0.06, 1.0, 0.0},
                      SmallCase{10.0, 0.02, 2.0, 1.0}));

}  // namespace
}  // namespace coca::opt

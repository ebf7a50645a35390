// Tests for the budget-capped slot solver (PerfectHP's inner problem).

#include "opt/capped_slot_solver.hpp"

#include <gtest/gtest.h>

namespace coca::opt {
namespace {

SlotWeights test_weights() {
  SlotWeights w;
  w.beta = 0.005;
  w.gamma = 0.9;
  return w;
}

dc::Fleet fleet() {
  return dc::make_default_fleet({.total_servers = 20'000,
                                 .group_count = 8,
                                 .generations = 4,
                                 .speed_spread = 0.18,
                                 .power_spread = 0.12});
}

TEST(CappedSolver, LooseCapLeavesUnconstrainedOptimum) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  const auto unconstrained = LadderSolver().solve(f, input, test_weights());
  const auto capped = CappedSlotSolver().solve(
      f, input, test_weights(), unconstrained.outcome.brown_kwh * 2.0);
  EXPECT_TRUE(capped.cap_met);
  EXPECT_FALSE(capped.cap_dropped);
  EXPECT_DOUBLE_EQ(capped.multiplier, 0.0);
  EXPECT_NEAR(capped.solution.outcome.total_cost,
              unconstrained.outcome.total_cost, 1e-9);
}

TEST(CappedSolver, BindingCapIsRespected) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  const auto unconstrained = LadderSolver().solve(f, input, test_weights());
  const double cap = unconstrained.outcome.brown_kwh * 0.8;
  const auto capped = CappedSlotSolver().solve(f, input, test_weights(), cap);
  ASSERT_TRUE(capped.cap_met);
  EXPECT_LE(capped.solution.outcome.brown_kwh, cap * (1.0 + 1e-6));
  EXPECT_GT(capped.multiplier, 0.0);
  // Cost must rise when the cap binds.
  EXPECT_GE(capped.solution.outcome.total_cost,
            unconstrained.outcome.total_cost);
}

TEST(CappedSolver, TighterCapsCostMore) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = LadderSolver().solve(f, input, test_weights());
  double prev_cost = base.outcome.total_cost;
  for (double fraction : {0.95, 0.9, 0.85}) {
    const auto capped = CappedSlotSolver().solve(
        f, input, test_weights(), base.outcome.brown_kwh * fraction);
    ASSERT_TRUE(capped.cap_met) << fraction;
    EXPECT_GE(capped.solution.outcome.total_cost, prev_cost * (1.0 - 1e-6));
    prev_cost = capped.solution.outcome.total_cost;
  }
}

TEST(CappedSolver, ImpossibleCapIsDropped) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  // Serving 50 K req/s physically needs power; a near-zero cap is hopeless.
  const auto capped = CappedSlotSolver().solve(f, input, test_weights(), 1.0);
  EXPECT_TRUE(capped.cap_dropped);
  EXPECT_FALSE(capped.cap_met);
  // The fallback is the unconstrained cost minimizer (the paper's rule).
  const auto unconstrained = LadderSolver().solve(f, input, test_weights());
  EXPECT_NEAR(capped.solution.outcome.total_cost,
              unconstrained.outcome.total_cost, 1e-9);
}

TEST(CappedSolver, OnsiteRenewablesRelaxTheCap) {
  const auto f = fleet();
  const SlotInput no_sun{50'000.0, 0.0, 0.06};
  const SlotInput sunny{50'000.0, 3'000.0, 0.06};
  const auto base = LadderSolver().solve(f, no_sun, test_weights());
  const double cap = base.outcome.brown_kwh * 0.8;
  const auto dark = CappedSlotSolver().solve(f, no_sun, test_weights(), cap);
  const auto bright = CappedSlotSolver().solve(f, sunny, test_weights(), cap);
  ASSERT_TRUE(dark.cap_met);
  ASSERT_TRUE(bright.cap_met);
  // With on-site help, meeting the same brown cap costs less.
  EXPECT_LE(bright.solution.outcome.total_cost,
            dark.solution.outcome.total_cost + 1e-9);
}

TEST(CappedSolver, ReportedOutcomeUsesTrueCostWeights) {
  const auto f = fleet();
  const SlotInput input{50'000.0, 0.0, 0.06};
  const auto base = LadderSolver().solve(f, input, test_weights());
  const auto capped = CappedSlotSolver().solve(f, input, test_weights(),
                                               base.outcome.brown_kwh * 0.85);
  // objective at (V=1, q=0) equals the plain cost.
  EXPECT_NEAR(capped.solution.outcome.objective,
              capped.solution.outcome.total_cost, 1e-9);
}

}  // namespace
}  // namespace coca::opt

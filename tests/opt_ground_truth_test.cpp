// Exhaustive-search ground-truth sweeps for the extension paths: the
// facility-power price (peak-power multiplier) and the tiered-tariff solver
// must stay near-optimal on small fleets where brute force is exact.

#include <gtest/gtest.h>

#include <limits>

#include "opt/exhaustive_solver.hpp"
#include "opt/gsd.hpp"
#include "opt/tiered_solver.hpp"

namespace coca::opt {
namespace {

dc::Fleet tiny_fleet() {
  return dc::make_default_fleet({.total_servers = 6,
                                 .group_count = 2,
                                 .generations = 2,
                                 .speed_spread = 0.2,
                                 .power_spread = 0.15});
}

SlotWeights weights_with_power_price(double xi) {
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  w.power_price = xi;
  return w;
}

struct PowerPriceCase {
  double lambda;
  double onsite;
  double xi;
};

class PowerPriceVsExhaustive
    : public ::testing::TestWithParam<PowerPriceCase> {};

TEST_P(PowerPriceVsExhaustive, LadderMatchesBruteForce) {
  const auto fleet = tiny_fleet();
  const auto& p = GetParam();
  const SlotInput input{p.lambda, p.onsite, 0.06};
  const auto w = weights_with_power_price(p.xi);

  const auto exact = ExhaustiveSolver().solve(fleet, input, w);
  LadderConfig polish;
  polish.polish_passes = 3;
  polish.polish_count_step = 0.34;
  const auto ladder = LadderSolver(polish).solve(fleet, input, w);

  ASSERT_TRUE(exact.feasible);
  ASSERT_TRUE(ladder.feasible);
  EXPECT_LE(ladder.outcome.objective, exact.outcome.objective * 1.10 + 1e-9);
  EXPECT_GE(ladder.outcome.objective, exact.outcome.objective * (1.0 - 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PowerPriceVsExhaustive,
    ::testing::Values(PowerPriceCase{20.0, 0.0, 0.1},
                      PowerPriceCase{20.0, 0.0, 1.0},
                      PowerPriceCase{40.0, 0.0, 0.5},
                      PowerPriceCase{20.0, 1.0, 0.5},
                      PowerPriceCase{10.0, 2.0, 2.0}));

TEST(TieredVsExhaustive, TieredSolverMatchesBruteForceUnderTariff) {
  // Brute force under the *tariff* objective: enumerate configurations,
  // balance loads at the tariff's relevant prices, rescore exactly.
  const auto fleet = tiny_fleet();
  const SlotInput input{20.0, 0.0, 0.06};
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const energy::TieredTariff tariff(
      {{1.0, 0.04}, {2.0, 0.12},
       {energy::TieredTariff::Tier{}.upto_kwh, 0.40}});

  const auto tiered = solve_tiered_slot(fleet, input, w, tariff);
  ASSERT_TRUE(tiered.solution.feasible);

  // Ground truth: for each tier price, exhaustively optimize at that linear
  // price, then rescore with the exact tariff; also pin boundaries.  The
  // global tariff optimum must match the best of these (the same candidate
  // family, but generated by brute force rather than the ladder).
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < tariff.tier_count(); ++k) {
    SlotInput probe = input;
    probe.price = tariff.tier(k).price;
    const auto exact = ExhaustiveSolver().solve(fleet, probe, w);
    if (!exact.feasible) continue;
    const double true_cost = tariff.cost(exact.outcome.brown_kwh) +
                             exact.outcome.delay_cost;
    best = std::min(best, true_cost);
  }
  EXPECT_LE(tiered.solution.outcome.total_cost, best * 1.10 + 1e-9);
}

TEST(GsdVsExhaustive, MultiChainMatchesOptimumAtLeastAsOftenAsSingleChain) {
  // At an equal total evaluation budget (chains x iterations held constant),
  // K restarted chains merged to the best incumbent should recover the
  // exhaustive optimum at least as often as one long chain: restarts trade
  // chain length for independent coverage of the (tiny) search space.
  // Deterministic per seed, so this is a regression check, not a flaky
  // statistical assertion.
  const auto fleet = tiny_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const SlotInput input{20.0, 0.0, 0.06};
  const auto exact = ExhaustiveSolver().solve(fleet, input, w);
  ASSERT_TRUE(exact.feasible);

  const int total_iterations = 240;
  const int chains = 4;
  int single_hits = 0, multi_hits = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GsdConfig single;
    single.iterations = total_iterations;
    single.delta = 1e4;
    single.seed = seed * 1000;
    GsdConfig multi = single;
    multi.chains = chains;
    multi.iterations = total_iterations / chains;

    const auto one = GsdSolver(single).solve(fleet, input, w);
    const auto merged = GsdSolver(multi).solve(fleet, input, w);
    EXPECT_LE(one.evaluations, total_iterations + 1);
    EXPECT_LE(merged.evaluations, total_iterations + chains);

    const double tol = exact.outcome.objective * (1.0 + 1e-9);
    single_hits += one.best.feasible && one.best.outcome.objective <= tol;
    multi_hits +=
        merged.best.feasible && merged.best.outcome.objective <= tol;
  }
  EXPECT_GE(multi_hits, single_hits);
  EXPECT_GT(multi_hits, 0);
}

TEST(TieredVsExhaustive, DegenerateSingleTierEqualsPlainExhaustive) {
  const auto fleet = tiny_fleet();
  const SlotInput input{25.0, 0.5, 0.08};
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const auto tiered = solve_tiered_slot(fleet, input, w,
                                        energy::TieredTariff::flat(0.08));
  const auto exact = ExhaustiveSolver().solve(fleet, input, w);
  ASSERT_TRUE(tiered.solution.feasible);
  EXPECT_LE(tiered.solution.outcome.total_cost,
            exact.outcome.total_cost * 1.10 + 1e-9);
}

}  // namespace
}  // namespace coca::opt

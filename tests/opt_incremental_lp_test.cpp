// Property-test harness for the incremental load-LP engine (opt/load_lp.hpp).
//
// The contract under test is the exactness policy:
//   * kBitExact: LoadLpContext::solve must be *bit-for-bit* identical to the
//     reference balance_loads — nu, regime, effective price, every load and
//     the full SlotOutcome breakdown — across randomized fleets, weights,
//     lambdas and thousands of GSD-style single-group flip sequences,
//     including forced regime flips across the [p - r]^+ kink and
//     infeasible-capacity transitions.
//   * kWarmStart: results agree with the reference to the documented epsilon
//     (relative 1e-6 on nu and objective), the regime revalidation falls
//     back on flips, and the warm counters move.
//
// All randomness is seeded through util::Rng (see tools/lint_determinism.py):
// every run of this binary executes the exact same solve sequence.

#include "opt/load_lp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "dc/fleet.hpp"
#include "opt/load_balancer.hpp"
#include "util/rng.hpp"

namespace coca::opt {
namespace {

dc::Fleet random_fleet(util::Rng& rng) {
  const std::size_t group_count = 1 + rng.uniform_index(5);
  const auto reference = dc::ServerSpec::opteron2380();
  std::vector<dc::ServerGroup> groups;
  for (std::size_t g = 0; g < group_count; ++g) {
    const double speed = rng.uniform(0.6, 1.3);
    const double power = rng.uniform(0.8, 1.3);
    const std::size_t servers = 1 + rng.uniform_index(10);
    groups.emplace_back(
        reference.scaled("gen" + std::to_string(g), speed, power), servers);
  }
  return dc::Fleet(std::move(groups));
}

SlotWeights random_weights(util::Rng& rng) {
  SlotWeights w;
  w.V = rng.uniform(0.5, 50.0);
  w.q = rng.bernoulli(0.5) ? rng.uniform(0.0, 5.0) : 0.0;
  w.beta = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.002, 0.05);
  w.gamma = rng.uniform(0.6, 0.95);
  w.pue = rng.uniform(1.0, 1.6);
  w.power_price = rng.bernoulli(0.2) ? rng.uniform(0.0, 0.02) : 0.0;
  return w;
}

dc::Allocation full_alloc(const dc::Fleet& fleet) {
  dc::Allocation alloc(fleet.group_count());
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    alloc[g].level = fleet.group(g).spec().level_count() - 1;
    alloc[g].active = static_cast<double>(fleet.group(g).server_count());
  }
  return alloc;
}

/// One GSD-style proposal: a random group explores off, or a random level
/// with a quantized active count (mirrors GsdSolver::solve_chain line 7).
void gsd_flip(util::Rng& rng, const dc::Fleet& fleet, dc::Allocation& alloc) {
  const std::size_t g = rng.uniform_index(fleet.group_count());
  const auto& group = fleet.group(g);
  const std::size_t option = rng.uniform_index(group.spec().level_count() + 1);
  if (option == 0) {
    alloc[g].level = 0;
    alloc[g].active = 0.0;
    return;
  }
  constexpr int kSteps = 4;
  const double chunk = std::ceil(static_cast<double>(group.server_count()) /
                                 static_cast<double>(kSteps));
  const auto step = rng.uniform_index(kSteps) + 1;
  alloc[g].level = option - 1;
  alloc[g].active = std::min(static_cast<double>(group.server_count()),
                             chunk * static_cast<double>(step));
}

void expect_bit_identical(const LoadBalanceResult& ref,
                          const LoadBalanceResult& inc,
                          const dc::Allocation& ref_alloc,
                          const dc::Allocation& inc_alloc,
                          const std::string& where) {
  EXPECT_EQ(ref.feasible, inc.feasible) << where;
  EXPECT_EQ(static_cast<int>(ref.regime), static_cast<int>(inc.regime))
      << where;
  EXPECT_EQ(ref.nu, inc.nu) << where;
  EXPECT_EQ(ref.effective_price, inc.effective_price) << where;
  EXPECT_EQ(ref.outcome.feasible, inc.outcome.feasible) << where;
  EXPECT_EQ(ref.outcome.infeasible_reason, inc.outcome.infeasible_reason)
      << where;
  EXPECT_EQ(ref.outcome.objective, inc.outcome.objective) << where;
  EXPECT_EQ(ref.outcome.total_cost, inc.outcome.total_cost) << where;
  EXPECT_EQ(ref.outcome.electricity_cost, inc.outcome.electricity_cost)
      << where;
  EXPECT_EQ(ref.outcome.delay_cost, inc.outcome.delay_cost) << where;
  EXPECT_EQ(ref.outcome.delay_jobs, inc.outcome.delay_jobs) << where;
  EXPECT_EQ(ref.outcome.brown_kwh, inc.outcome.brown_kwh) << where;
  EXPECT_EQ(ref.outcome.it_power_kw, inc.outcome.it_power_kw) << where;
  EXPECT_EQ(ref.outcome.facility_power_kw, inc.outcome.facility_power_kw)
      << where;
  ASSERT_EQ(ref_alloc.size(), inc_alloc.size());
  for (std::size_t g = 0; g < ref_alloc.size(); ++g) {
    EXPECT_EQ(ref_alloc[g].load, inc_alloc[g].load)
        << where << " group " << g;
  }
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max({1.0, std::abs(a), std::abs(b)});
}

// --- headline property: bit-exactness over randomized flip sequences ------

TEST(IncrementalLp, BitExactOverThousandRandomFlipSequences) {
  util::Rng rng(20260808);
  int sequences = 0;
  for (int scenario = 0; scenario < 60; ++scenario) {
    const auto fleet = random_fleet(rng);
    const auto weights = random_weights(rng);
    const double capacity =
        dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
    // Lambda up to 1.2x the full capped capacity: flip sequences routinely
    // cross in and out of infeasible-capacity territory.
    const SlotInput probe_input{rng.uniform(0.05, 1.2) * capacity, 0.0,
                                rng.uniform(0.01, 0.3)};
    // Scale the on-site supply off the regime-A power of the full fleet so
    // the draws land on all three kink branches.
    auto probe = full_alloc(fleet);
    balance_loads(fleet, probe, probe_input, weights);
    const double power_scale =
        std::max(1.0, allocation_facility_kw(fleet, probe, weights.pue));
    SlotInput input = probe_input;
    input.onsite_kw =
        rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 1.5) * power_scale;

    LoadLpContext ctx(fleet);
    dc::Allocation state = full_alloc(fleet);
    for (int flip = 0; flip < 18; ++flip) {
      dc::Allocation ref_alloc = state;
      dc::Allocation inc_alloc = state;
      const auto ref = balance_loads(fleet, ref_alloc, input, weights);
      const auto inc = ctx.solve(inc_alloc, input, weights);
      expect_bit_identical(ref, inc, ref_alloc, inc_alloc,
                           "scenario " + std::to_string(scenario) + " flip " +
                               std::to_string(flip));
      ++sequences;
      gsd_flip(rng, fleet, state);
    }
  }
  EXPECT_GE(sequences, 1000);  // the issue's floor for the property harness
}

TEST(IncrementalLp, SolveLinearBitExactIncludingGreedyAndInfeasible) {
  util::Rng rng(77);
  for (int scenario = 0; scenario < 40; ++scenario) {
    const auto fleet = random_fleet(rng);
    auto weights = random_weights(rng);
    if (scenario % 4 == 0) weights.beta = 0.0;  // greedy merit-order path
    const double capacity =
        dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
    const double lambda = rng.uniform(0.0, 1.3) * capacity;
    const double mu = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 2.0);
    LoadLpContext ctx(fleet);
    dc::Allocation state = full_alloc(fleet);
    for (int flip = 0; flip < 10; ++flip) {
      dc::Allocation ref_alloc = state;
      dc::Allocation inc_alloc = state;
      const double ref_nu =
          balance_loads_linear(fleet, ref_alloc, lambda, mu, weights);
      const double inc_nu = ctx.solve_linear(inc_alloc, lambda, mu, weights);
      EXPECT_EQ(ref_nu, inc_nu) << "scenario " << scenario << " flip " << flip;
      for (std::size_t g = 0; g < ref_alloc.size(); ++g) {
        EXPECT_EQ(ref_alloc[g].load, inc_alloc[g].load)
            << "scenario " << scenario << " flip " << flip << " group " << g;
      }
      gsd_flip(rng, fleet, state);
    }
  }
}

// --- forced regime flips across the [p - r]^+ kink -------------------------

dc::Fleet two_group_fleet() {
  const auto reference = dc::ServerSpec::opteron2380();
  std::vector<dc::ServerGroup> groups;
  groups.emplace_back(reference, 5);
  groups.emplace_back(reference.scaled("old", 0.8, 1.15), 5);
  return dc::Fleet(std::move(groups));
}

/// Deterministic allocation ladder that sweeps the fleet's power draw from
/// far above to far below the on-site supply, so consecutive solves cross
/// kGridDraw -> kBoundary -> kRenewable.
std::vector<dc::Allocation> regime_ladder(const dc::Fleet& fleet) {
  std::vector<dc::Allocation> ladder;
  for (double active : {5.0, 4.0, 3.0, 2.0, 1.0}) {
    for (std::size_t level : {std::size_t{3}, std::size_t{1}}) {
      dc::Allocation alloc(fleet.group_count());
      for (auto& a : alloc) {
        a.level = level;
        a.active = active;
      }
      ladder.push_back(alloc);
    }
  }
  return ladder;
}

TEST(IncrementalLp, BitExactAcrossForcedRegimeFlips) {
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const double lambda = 12.0;

  // Power range of the *full* configuration (regime A draw vs delay-minimal
  // draw), as in LoadBalancer.BoundaryRegimePinsPowerToOnsite.
  dc::Allocation probe(fleet.group_count());
  for (auto& a : probe) {
    a.level = 3;
    a.active = 5.0;
  }
  auto tmp = probe;
  balance_loads_linear(fleet, tmp, lambda, w.brown_price(0.06), w);
  const double power_a = allocation_facility_kw(fleet, tmp, w.pue);
  balance_loads_linear(fleet, tmp, lambda, 0.0, w);
  const double power_b = allocation_facility_kw(fleet, tmp, w.pue);
  ASSERT_LT(power_a, power_b);

  const auto ladder = regime_ladder(fleet);
  std::set<int> regimes_seen;
  // Three on-site supplies: none (all grid), mid (boundary pins / flips as
  // the ladder shrinks the fleet), abundant (all renewable).
  const double onsites[] = {0.0, 0.5 * (power_a + power_b), 10.0 * power_b};
  LoadLpContext ctx(fleet);
  for (double onsite : onsites) {
    const SlotInput input{lambda, onsite, 0.06};
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      dc::Allocation ref_alloc = ladder[i];
      dc::Allocation inc_alloc = ladder[i];
      const auto ref = balance_loads(fleet, ref_alloc, input, w);
      const auto inc = ctx.solve(inc_alloc, input, w);
      expect_bit_identical(ref, inc, ref_alloc, inc_alloc,
                           "onsite " + std::to_string(onsite) + " step " +
                               std::to_string(i));
      if (ref.feasible) regimes_seen.insert(static_cast<int>(ref.regime));
    }
  }
  // The harness only proves something about the kink if it actually crossed
  // it: all three branches must occur.
  EXPECT_EQ(regimes_seen.size(), 3u);
}

TEST(IncrementalLp, BitExactAcrossInfeasibleCapacityTransitions) {
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const SlotInput input{50.0, 0.0, 0.06};  // needs most of the fleet

  LoadLpContext ctx(fleet);
  // active = 1 is infeasible for lambda = 50 (capacity 16.2); the sequence
  // transitions feasible -> infeasible -> feasible through one context.
  for (double active : {5.0, 1.0, 4.0, 1.0, 5.0}) {
    dc::Allocation alloc(fleet.group_count());
    for (auto& a : alloc) {
      a.level = 3;
      a.active = active;
    }
    dc::Allocation ref_alloc = alloc;
    dc::Allocation inc_alloc = alloc;
    const auto ref = balance_loads(fleet, ref_alloc, input, w);
    const auto inc = ctx.solve(inc_alloc, input, w);
    expect_bit_identical(ref, inc, ref_alloc, inc_alloc,
                         "active " + std::to_string(active));
    EXPECT_EQ(ref.feasible, active > 1.0);
  }
}

// --- engine mechanics ------------------------------------------------------

TEST(IncrementalLp, ExactMemoHitOnRepeatedConfiguration) {
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const SlotInput input{30.0, 0.0, 0.06};
  LoadLpContext ctx(fleet);

  dc::Allocation a(fleet.group_count());
  for (auto& x : a) {
    x.level = 3;
    x.active = 5.0;
  }
  dc::Allocation b = a;
  b[0].active = 3.0;

  dc::Allocation first = a;
  const auto r1 = ctx.solve(first, input, w);
  dc::Allocation other = b;
  ctx.solve(other, input, w);
  dc::Allocation again = a;
  const auto r2 = ctx.solve(again, input, w);

  EXPECT_GE(ctx.stats().memo_hits, 1);
  expect_bit_identical(r1, r2, first, again, "memo replay");
}

TEST(IncrementalLp, StatsClassifyWarmAndColdSolves) {
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  LoadLpContext ctx(fleet);
  dc::Allocation alloc(fleet.group_count());
  for (auto& a : alloc) {
    a.level = 3;
    a.active = 5.0;
  }

  SlotInput input{30.0, 0.0, 0.06};
  auto c1 = alloc;
  ctx.solve(c1, input, w);  // first solve of the slot: cold
  auto c2 = alloc;
  c2[0].active = 4.0;
  ctx.solve(c2, input, w);  // same slot: warm
  input.lambda = 31.0;      // new slot invalidates the dual point
  auto c3 = alloc;
  ctx.solve(c3, input, w);  // cold again

  EXPECT_EQ(ctx.stats().solves, 3);
  EXPECT_EQ(ctx.stats().cold, 2);
  EXPECT_EQ(ctx.stats().warm, 1);
}

TEST(IncrementalLp, BatchMatchesSequentialSolves) {
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const SlotInput input{25.0, 0.0, 0.08};

  std::vector<dc::Allocation> candidates;
  for (double active : {5.0, 3.0, 2.0, 5.0}) {
    dc::Allocation alloc(fleet.group_count());
    for (auto& a : alloc) {
      a.level = 3;
      a.active = active;
    }
    candidates.push_back(alloc);
  }

  LoadLpContext batch_ctx(fleet);
  std::vector<dc::Allocation> batch = candidates;
  std::vector<LoadBalanceResult> results;
  batch_ctx.solve_batch(batch, input, w, results);
  ASSERT_EQ(results.size(), candidates.size());

  LoadLpContext seq_ctx(fleet);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    dc::Allocation alloc = candidates[i];
    const auto ref = seq_ctx.solve(alloc, input, w);
    expect_bit_identical(ref, results[i], alloc, batch[i],
                         "candidate " + std::to_string(i));
  }
}

TEST(IncrementalLp, FreshContextReproducesWarmContextBitForBit) {
  // Cache state must be invisible in the results: a context that has seen
  // unrelated solves answers exactly like a fresh one.
  util::Rng rng(4242);
  const auto fleet = random_fleet(rng);
  const auto weights = random_weights(rng);
  const double capacity =
      dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
  const SlotInput input{0.5 * capacity, 0.0, 0.07};

  LoadLpContext warm_ctx(fleet);
  dc::Allocation state = full_alloc(fleet);
  for (int i = 0; i < 8; ++i) {  // warm it up on unrelated configurations
    auto scratch = state;
    warm_ctx.solve(scratch, input, weights);
    gsd_flip(rng, fleet, state);
  }
  auto warm_alloc = state;
  const auto warm = warm_ctx.solve(warm_alloc, input, weights);

  LoadLpContext fresh_ctx(fleet);
  auto fresh_alloc = state;
  const auto fresh = fresh_ctx.solve(fresh_alloc, input, weights);
  expect_bit_identical(fresh, warm, fresh_alloc, warm_alloc, "fresh vs warm");
}

// --- kWarmStart: the documented-epsilon policy -----------------------------

TEST(IncrementalLp, WarmStartPolicyStaysWithinDocumentedEpsilon) {
  util::Rng rng(991);
  for (int scenario = 0; scenario < 30; ++scenario) {
    const auto fleet = random_fleet(rng);
    const auto weights = random_weights(rng);
    const double capacity =
        dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
    const SlotInput probe_input{rng.uniform(0.1, 0.9) * capacity, 0.0,
                                rng.uniform(0.02, 0.2)};
    auto probe = full_alloc(fleet);
    balance_loads(fleet, probe, probe_input, weights);
    const double power_scale =
        std::max(1.0, allocation_facility_kw(fleet, probe, weights.pue));
    SlotInput input = probe_input;
    input.onsite_kw =
        rng.bernoulli(0.4) ? 0.0 : rng.uniform(0.0, 1.2) * power_scale;

    LoadLpContext ctx(fleet, LoadLpPolicy::kWarmStart);
    dc::Allocation state = full_alloc(fleet);
    for (int flip = 0; flip < 12; ++flip) {
      dc::Allocation ref_alloc = state;
      dc::Allocation inc_alloc = state;
      const auto ref = balance_loads(fleet, ref_alloc, input, weights);
      const auto inc = ctx.solve(inc_alloc, input, weights);
      const std::string where = "scenario " + std::to_string(scenario) +
                                " flip " + std::to_string(flip);
      ASSERT_EQ(ref.feasible, inc.feasible) << where;
      if (ref.feasible) {
        EXPECT_LE(rel_diff(ref.nu, inc.nu), 1e-6) << where;
        EXPECT_LE(rel_diff(ref.outcome.objective, inc.outcome.objective), 1e-6)
            << where;
        double ref_total = 0.0;
        double inc_total = 0.0;
        for (std::size_t g = 0; g < ref_alloc.size(); ++g) {
          ref_total += ref_alloc[g].load;
          inc_total += inc_alloc[g].load;
        }
        EXPECT_LE(rel_diff(ref_total, inc_total), 1e-6) << where;
      }
      gsd_flip(rng, fleet, state);
    }
  }
}

TEST(IncrementalLp, WarmStartRegimeFlipFallsBackToReferenceOrder) {
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const double lambda = 12.0;
  dc::Allocation probe(fleet.group_count());
  for (auto& a : probe) {
    a.level = 3;
    a.active = 5.0;
  }
  auto tmp = probe;
  balance_loads_linear(fleet, tmp, lambda, w.brown_price(0.06), w);
  const double power_a = allocation_facility_kw(fleet, tmp, w.pue);
  balance_loads_linear(fleet, tmp, lambda, 0.0, w);
  const double power_b = allocation_facility_kw(fleet, tmp, w.pue);
  const SlotInput input{lambda, 0.5 * (power_a + power_b), 0.06};

  LoadLpContext ctx(fleet, LoadLpPolicy::kWarmStart);
  std::set<int> ref_regimes;
  for (const auto& alloc : regime_ladder(fleet)) {
    dc::Allocation ref_alloc = alloc;
    dc::Allocation inc_alloc = alloc;
    const auto ref = balance_loads(fleet, ref_alloc, input, w);
    const auto inc = ctx.solve(inc_alloc, input, w);
    ASSERT_EQ(ref.feasible, inc.feasible);
    if (ref.feasible) {
      EXPECT_EQ(static_cast<int>(ref.regime), static_cast<int>(inc.regime));
      EXPECT_LE(rel_diff(ref.outcome.objective, inc.outcome.objective), 1e-6);
    }
    if (ref.feasible) ref_regimes.insert(static_cast<int>(ref.regime));
  }
  // The ladder really crossed the kink, so the warm path must have detected
  // at least one cached-regime mismatch and fallen back.
  ASSERT_GE(ref_regimes.size(), 2u);
  EXPECT_GE(ctx.stats().regime_flips, 1);
  EXPECT_GE(ctx.stats().warm, 1);
}

// --- server types: the ladder's per-type market clearing ------------------

std::vector<std::size_t> types_of(const dc::Fleet& fleet) {
  LoadLpContext lp(fleet);
  const auto tables = lp.tables(SlotWeights{});
  return {tables.group_type.begin(), tables.group_type.end()};
}

TEST(ServerTypes, EqualSpecsShareATypeWhateverTheServerCount) {
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 8'000, .group_count = 8, .generations = 4});
  // Group 2 loses every server, groups 1 and 6 some of theirs.
  const auto degraded =
      dc::degraded_fleet(fleet, {0, 500, 1'000, 0, 0, 0, 999, 0});
  ASSERT_EQ(degraded.group(2).server_count(), 0u);
  LoadLpContext lp(degraded);
  const auto tables = lp.tables(SlotWeights{});
  ASSERT_EQ(tables.type_group.size(), 4u);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(tables.type_group[t], t);
  for (std::size_t g = 0; g < 8; ++g) {
    EXPECT_EQ(tables.group_type[g], g % 4) << "group " << g;
    EXPECT_EQ(tables.servers[g],
              static_cast<double>(degraded.group(g).server_count()));
  }
}

TEST(ServerTypes, AnyValueTheClearingReadsSplitsAType) {
  const auto reference = dc::ServerSpec::opteron2380();
  const auto fleet_with = [&](const dc::ServerSpec& odd) {
    std::vector<dc::ServerGroup> groups;
    for (std::size_t g = 0; g < 4; ++g) {
      groups.emplace_back(g == 2 ? odd : reference, 10);
    }
    return dc::Fleet(std::move(groups));
  };
  const double static_kw = reference.static_power_kw();
  const auto levels = reference.levels();
  const auto up = [](double x) {
    return std::nextafter(x, std::numeric_limits<double>::infinity());
  };

  // The model name is not part of a type: an exact copy shares it.
  EXPECT_EQ(types_of(fleet_with(dc::ServerSpec("copy", static_kw, levels))),
            (std::vector<std::size_t>{0, 0, 0, 0}));

  std::vector<dc::ServerSpec> variants;
  auto rate = levels;
  rate[1].service_rate = up(rate[1].service_rate);
  variants.emplace_back("rate", static_kw, rate);
  auto dynamic = levels;
  dynamic[2].dynamic_power_kw = up(dynamic[2].dynamic_power_kw);
  variants.emplace_back("dynamic", static_kw, dynamic);
  variants.emplace_back("static", up(static_kw), levels);
  auto fewer = levels;
  fewer.pop_back();
  variants.emplace_back("levels", static_kw, fewer);
  for (const auto& odd : variants) {
    SCOPED_TRACE(odd.model());
    EXPECT_EQ(types_of(fleet_with(odd)),
              (std::vector<std::size_t>{0, 0, 1, 0}));
  }
}

TEST(ServerTypes, DefaultFleetHasOneTypePerGeneration) {
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 40'000, .group_count = 40, .generations = 4});
  const auto types = types_of(fleet);
  ASSERT_EQ(types.size(), 40u);
  for (std::size_t g = 0; g < 40; ++g) EXPECT_EQ(types[g], g % 4);
  LoadLpContext lp(fleet);
  EXPECT_EQ(lp.tables(SlotWeights{}).type_group.size(), 4u);
}

TEST(ServerTypes, DistinctGenerationsGiveOneTypePerGroup) {
  const auto fleet = dc::make_default_fleet(
      {.total_servers = 40'000, .group_count = 40, .generations = 40});
  const auto types = types_of(fleet);
  ASSERT_EQ(types.size(), 40u);
  for (std::size_t g = 0; g < 40; ++g) EXPECT_EQ(types[g], g);
}

TEST(ServerTypes, TablesFollowPueAndKeepLaterSolvesExact) {
  // The pue-scaled tables are the specs' expressions bit for bit, and
  // reading them at a new pue between solves must not leave the class
  // arrays on the old entries.
  util::Rng rng(77);
  const auto fleet = random_fleet(rng);
  auto weights = random_weights(rng);
  weights.beta = 0.01;
  const double capacity =
      dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
  const SlotInput input{0.6 * capacity, 0.0, 0.07};

  LoadLpContext lp(fleet);
  auto first = full_alloc(fleet);
  lp.solve(first, input, weights);

  SlotWeights other = weights;
  other.pue = weights.pue + 0.25;
  const auto tables = lp.tables(other);
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    const auto& spec = fleet.group(g).spec();
    EXPECT_EQ(tables.facility_static[g], other.pue * spec.static_power_kw());
    for (std::size_t k = 0; k < spec.level_count(); ++k) {
      const std::size_t i = tables.level_offset[g] + k;
      EXPECT_EQ(tables.rate[i], spec.level(k).service_rate);
      EXPECT_EQ(tables.facility_slope[i], other.pue * spec.dynamic_slope(k));
    }
  }

  auto inc_alloc = full_alloc(fleet);
  const auto inc = lp.solve(inc_alloc, input, other);
  auto ref_alloc = full_alloc(fleet);
  const auto ref = balance_loads(fleet, ref_alloc, input, other);
  expect_bit_identical(ref, inc, ref_alloc, inc_alloc, "after tables()");
}

}  // namespace
}  // namespace coca::opt

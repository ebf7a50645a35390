// Property-test harness for the table-driven load-LP engine
// (opt/load_lp.hpp).
//
// The contract under test: solve_load_lp must be *bit-for-bit* identical to
// the reference balance_loads — nu, regime, effective price, every load and
// the full SlotOutcome breakdown — across randomized fleets (mostly groups
// drawn from a few shared specs, so groups share a server type and a type
// runs at several levels in one solve; some all-distinct; and degraded
// copies), weights (including a pue that changes between solves), lambdas
// and thousands of GSD-style single-group flip sequences, including forced
// regime flips across the [p - r]^+ kink and infeasible-capacity
// transitions; no solve may see an earlier one, on any fleet, through the
// thread's scratch lanes; an out-of-ladder level throws as the reference
// does; and the fleet tables the solves read, scaled by pue, are the specs'
// expressions.  The certified market clearing is checked on its own: its
// rounding margin covers crafted worst-case sums, large fleets of a few
// entries stay bit-exact, and a GSD chain certifies most bisection steps.
// Both sides score through one table-driven opt::evaluate, so the
// Evaluate tests check it against the object model (ServerGroup::power_kw
// and delay_cost) bit for bit, and check the power model's domain edges.
//
// All randomness is seeded through util::Rng (see tools/lint_determinism.py):
// every run of this binary executes the exact same solve sequence.

#include "opt/load_lp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

#include "dc/fleet.hpp"
#include "obs/metrics.hpp"
#include "opt/gsd.hpp"
#include "opt/load_balancer.hpp"
#include "util/rng.hpp"

namespace coca::opt {
namespace {

/// A random fleet of 1-8 groups.  Three in four draw their groups from a
/// pool of 1-3 scaled specs, with differing server counts, so several groups
/// share a server type and one type can run at several levels in one solve;
/// the rest give every group its own scaled spec (one type per group).
dc::Fleet random_fleet(util::Rng& rng) {
  const std::size_t group_count = 1 + rng.uniform_index(8);
  const bool distinct = rng.bernoulli(0.25);
  const std::size_t spec_count = distinct ? group_count : 1 + rng.uniform_index(3);
  const auto reference = dc::ServerSpec::opteron2380();
  std::vector<dc::ServerSpec> pool;
  for (std::size_t s = 0; s < spec_count; ++s) {
    const double speed = rng.uniform(0.6, 1.3);
    const double power = rng.uniform(0.8, 1.3);
    pool.push_back(reference.scaled("gen" + std::to_string(s), speed, power));
  }
  std::vector<dc::ServerGroup> groups;
  for (std::size_t g = 0; g < group_count; ++g) {
    const std::size_t s = distinct ? g : rng.uniform_index(spec_count);
    const std::size_t servers = 1 + rng.uniform_index(10);
    groups.emplace_back(pool[s], servers);
  }
  return dc::Fleet(std::move(groups));
}

/// A degraded copy of `fleet` with a random number of failed servers per
/// group (whole groups may fail): it shares the fleet's tables and types.
dc::Fleet random_degraded(util::Rng& rng, const dc::Fleet& fleet) {
  std::vector<std::size_t> failed(fleet.group_count());
  for (std::size_t g = 0; g < failed.size(); ++g) {
    failed[g] = rng.uniform_index(fleet.group(g).server_count() + 1);
  }
  return dc::degraded_fleet(fleet, failed);
}

/// `alloc` with every active count capped at `fleet`'s server count.
dc::Allocation clamp_to(const dc::Fleet& fleet, dc::Allocation alloc) {
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    alloc[g].active = std::min(alloc[g].active, fleet.server_counts()[g]);
  }
  return alloc;
}

/// How a solve's active groups share the load LP's per-(type, level)
/// entries: whether two groups read one entry, and whether one type runs at
/// two levels.
struct Sharing {
  bool shared_entry = false;
  bool type_at_two_levels = false;
};

Sharing sharing(const dc::Fleet& fleet, const dc::Allocation& alloc) {
  const dc::FleetTables& tables = fleet.tables();
  std::set<std::pair<std::size_t, std::size_t>> entries;
  std::set<std::size_t> types;
  Sharing out;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    if (alloc[g].active <= 1e-12) continue;
    const std::size_t type = tables.group_type[g];
    if (!entries.insert({type, alloc[g].level}).second) {
      out.shared_entry = true;
    } else if (!types.insert(type).second) {
      out.type_at_two_levels = true;
    }
  }
  return out;
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

/// Solves `state` with the reference and with the engine, expects the two
/// bit-identical, and returns the reference's result.
LoadBalanceResult expect_solve_bit_identical(const dc::Fleet& fleet,
                                             const dc::Allocation& state,
                                             const SlotInput& input,
                                             const SlotWeights& w,
                                             const std::string& where) {
  dc::Allocation ref_alloc = state;
  dc::Allocation inc_alloc = state;
  const auto ref = balance_loads(fleet, ref_alloc, input, w);
  const auto inc = solve_load_lp(fleet, inc_alloc, input, w);
  expect_bit_identical(ref, inc, ref_alloc, inc_alloc, where);
  return ref;
}

// --- headline property: bit-exactness over randomized flip sequences ------

TEST(IncrementalLp, BitExactOverThousandRandomFlipSequences) {
  util::Rng rng(20260808);
  int sequences = 0;
  int shared_entry_solves = 0;
  int two_level_solves = 0;
  for (int scenario = 0; scenario < 60; ++scenario) {
    const auto fleet = random_fleet(rng);
    // Every other scenario also solves each flip on a degraded copy, which
    // shares the fleet's tables but not its server counts.
    const bool degrade = scenario % 2 == 1;
    const auto degraded = random_degraded(rng, fleet);
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

    dc::Allocation state = full_alloc(fleet);
    for (int flip = 0; flip < 18; ++flip) {
      // Every other solve runs at a higher pue: the pue-scaled terms must
      // follow each solve's weights.
      SlotWeights w = weights;
      if (flip % 2 == 1) w.pue = weights.pue + 0.25;
      const std::string where = "scenario " + std::to_string(scenario) +
                                " flip " + std::to_string(flip);
      expect_solve_bit_identical(fleet, state, input, w, where);
      if (degrade) {
        expect_solve_bit_identical(degraded, clamp_to(degraded, state), input,
                                   w, where + " degraded");
      }
      const Sharing shared = sharing(fleet, state);
      shared_entry_solves += shared.shared_entry ? 1 : 0;
      two_level_solves += shared.type_at_two_levels ? 1 : 0;
      ++sequences;
      gsd_flip(rng, fleet, state);
    }
  }
  EXPECT_GE(sequences, 1000);  // the property harness's floor
  // The per-(type, level) entries are only exercised if groups share them
  // and a type runs at two levels in one solve.
  EXPECT_GE(shared_entry_solves, 300);
  EXPECT_GE(two_level_solves, 300);
}

void expect_linear_bit_identical(const dc::Fleet& fleet,
                                 const dc::Allocation& state, double lambda,
                                 double mu, const SlotWeights& weights,
                                 const std::string& where) {
  dc::Allocation ref_alloc = state;
  dc::Allocation inc_alloc = state;
  const double ref_nu =
      balance_loads_linear(fleet, ref_alloc, lambda, mu, weights);
  const double inc_nu =
      solve_load_lp_linear(fleet, inc_alloc, lambda, mu, weights);
  EXPECT_EQ(ref_nu, inc_nu) << where;
  for (std::size_t g = 0; g < ref_alloc.size(); ++g) {
    EXPECT_EQ(ref_alloc[g].load, inc_alloc[g].load) << where << " group " << g;
  }
}

TEST(IncrementalLp, SolveLinearBitExactIncludingGreedyAndInfeasible) {
  util::Rng rng(77);
  for (int scenario = 0; scenario < 40; ++scenario) {
    const auto fleet = random_fleet(rng);
    const auto degraded = random_degraded(rng, fleet);
    auto weights = random_weights(rng);
    if (scenario % 4 == 0) weights.beta = 0.0;  // greedy merit-order path
    const double capacity =
        dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
    const double lambda = rng.uniform(0.0, 1.3) * capacity;
    const double mu = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 2.0);
    dc::Allocation state = full_alloc(fleet);
    for (int flip = 0; flip < 10; ++flip) {
      const std::string where = "scenario " + std::to_string(scenario) +
                                " flip " + std::to_string(flip);
      expect_linear_bit_identical(fleet, state, lambda, mu, weights, where);
      if (scenario % 2 == 1) {
        expect_linear_bit_identical(degraded, clamp_to(degraded, state), lambda,
                                    mu, weights, where + " degraded");
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
  for (double onsite : onsites) {
    const SlotInput input{lambda, onsite, 0.06};
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      dc::Allocation ref_alloc = ladder[i];
      dc::Allocation inc_alloc = ladder[i];
      const auto ref = balance_loads(fleet, ref_alloc, input, w);
      const auto inc = solve_load_lp(fleet, inc_alloc, input, w);
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

  // active = 1 is infeasible for lambda = 50 (capacity 16.2); the sequence
  // transitions feasible -> infeasible -> feasible on one thread's lanes.
  for (double active : {5.0, 1.0, 4.0, 1.0, 5.0}) {
    dc::Allocation alloc(fleet.group_count());
    for (auto& a : alloc) {
      a.level = 3;
      a.active = active;
    }
    dc::Allocation ref_alloc = alloc;
    dc::Allocation inc_alloc = alloc;
    const auto ref = balance_loads(fleet, ref_alloc, input, w);
    const auto inc = solve_load_lp(fleet, inc_alloc, input, w);
    expect_bit_identical(ref, inc, ref_alloc, inc_alloc,
                         "active " + std::to_string(active));
    EXPECT_EQ(ref.feasible, active > 1.0);
  }
}

// --- engine mechanics ------------------------------------------------------

TEST(IncrementalLp, RepeatedConfigurationIsBitIdentical) {
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const SlotInput input{30.0, 0.0, 0.06};

  dc::Allocation a(fleet.group_count());
  for (auto& x : a) {
    x.level = 3;
    x.active = 5.0;
  }
  dc::Allocation b = a;
  b[0].active = 3.0;

  dc::Allocation first = a;
  const auto r1 = solve_load_lp(fleet, first, input, w);
  dc::Allocation other = b;
  solve_load_lp(fleet, other, input, w);
  dc::Allocation again = a;
  const auto r2 = solve_load_lp(fleet, again, input, w);

  expect_bit_identical(r1, r2, first, again, "repeated configuration");
}

TEST(IncrementalLp, FreshContextReproducesWarmContextBitForBit) {
  // Earlier solves must be invisible in the results: after unrelated solves
  // on this thread's lanes, a solve answers exactly like the same solve on a
  // new thread, whose lanes start empty.
  util::Rng rng(4242);
  const auto fleet = random_fleet(rng);
  const auto weights = random_weights(rng);
  const double capacity =
      dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
  const SlotInput input{0.5 * capacity, 0.0, 0.07};

  dc::Allocation state = full_alloc(fleet);
  for (int i = 0; i < 8; ++i) {  // warm the lanes on unrelated configurations
    auto scratch = state;
    solve_load_lp(fleet, scratch, input, weights);
    gsd_flip(rng, fleet, state);
  }
  auto warm_alloc = state;
  const auto warm = solve_load_lp(fleet, warm_alloc, input, weights);

  auto fresh_alloc = state;
  LoadBalanceResult fresh;
  std::thread([&] {
    fresh = solve_load_lp(fleet, fresh_alloc, input, weights);
  }).join();
  expect_bit_identical(fresh, warm, fresh_alloc, warm_alloc, "fresh vs warm");
}

TEST(IncrementalLp, InterleavedFleetsOfDifferentTableSizesStayBitExact) {
  // One thread's scratch serves every fleet the thread solves: solves that
  // alternate between fleets whose tables differ in size, and so address
  // different stretches of the slot->entry map, each match the reference.
  util::Rng rng(31337);
  const dc::Fleet fleet200 = dc::make_default_fleet();
  dc::FleetConfig config40;
  config40.group_count = 40;
  const dc::Fleet fleet40 = dc::make_default_fleet(config40);
  const auto reference = dc::ServerSpec::opteron2380();
  std::vector<dc::ServerGroup> groups;
  for (std::size_t g = 0; g < 7; ++g) {  // one type per group
    const double step = static_cast<double>(g);
    groups.emplace_back(reference.scaled("gen" + std::to_string(g),
                                         0.7 + 0.05 * step, 0.9 + 0.04 * step),
                        3 + g);
  }
  const dc::Fleet distinct7(std::move(groups));
  const dc::Fleet degraded = random_degraded(rng, fleet200);
  const std::vector<const dc::Fleet*> fleets = {&fleet200, &fleet40,
                                                &distinct7, &degraded};
  ASSERT_EQ(distinct7.tables().type_group.size(), 7u);

  SlotWeights w;
  w.V = 5.0;
  w.q = 0.5;
  w.beta = 0.01;
  w.gamma = 0.9;
  std::vector<dc::Allocation> states;
  std::vector<SlotInput> inputs;
  for (const dc::Fleet* fleet : fleets) {
    states.push_back(clamp_to(*fleet, full_alloc(*fleet)));
    const double capacity = dc::capped_capacity(*fleet, states.back(), w.gamma);
    SlotInput input{rng.uniform(0.2, 0.8) * capacity, 0.0, 0.06};
    // On-site supply around the full fleet's regime-A power, so the solves
    // land on different kink branches.
    auto probe = states.back();
    balance_loads(*fleet, probe, input, w);
    input.onsite_kw = rng.uniform(0.5, 1.2) *
                      allocation_facility_kw(*fleet, probe, w.pue);
    inputs.push_back(input);
  }
  std::set<int> regimes_seen;
  for (int round = 0; round < 8; ++round) {
    for (std::size_t k = 0; k < fleets.size(); ++k) {
      // Odd rounds visit the fleets in reverse order.
      const std::size_t f = round % 2 == 0 ? k : fleets.size() - 1 - k;
      const dc::Fleet& fleet = *fleets[f];
      const auto ref = expect_solve_bit_identical(
          fleet, states[f], inputs[f], w,
          "round " + std::to_string(round) + " fleet " + std::to_string(f));
      if (ref.feasible) regimes_seen.insert(static_cast<int>(ref.regime));
      gsd_flip(rng, fleet, states[f]);
      states[f] = clamp_to(fleet, states[f]);
    }
  }
  EXPECT_GE(regimes_seen.size(), 2u);
}

/// The exception a call throws, as "<type>: <what>", or "" when it returns.
template <typename Call>
std::string thrown_by(Call call) {
  try {
    call();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return "";
}

TEST(IncrementalLp, OutOfLadderLevelThrowsLikeTheReference) {
  // An active group whose level lies outside its ladder must not index the
  // fleet tables: both entry points hand the allocation to the reference,
  // which throws its own error.  A middle group and the last group (whose
  // bad level would read past the end of the tables) are each covered, and
  // so is an active group beyond the fleet.
  dc::FleetConfig config;
  config.group_count = 8;
  const dc::Fleet fleet = dc::make_default_fleet(config);
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const SlotInput input{0.3 * fleet.max_capacity(), 0.0, 0.06};
  std::vector<std::pair<std::string, dc::Allocation>> cases;
  for (const std::size_t bad : {std::size_t{3}, std::size_t{7}}) {
    dc::Allocation alloc = full_alloc(fleet);
    alloc[bad].level = 7;
    cases.emplace_back("level 7 at group " + std::to_string(bad), alloc);
  }
  dc::Allocation extra = full_alloc(fleet);
  extra.push_back(extra.back());
  cases.emplace_back("a ninth active group", extra);
  for (const auto& [where, alloc] : cases) {
    auto ref_alloc = alloc;
    EXPECT_THROW(balance_loads(fleet, ref_alloc, input, w), std::out_of_range)
        << where;
    EXPECT_EQ(thrown_by([&] {
                auto a = alloc;
                solve_load_lp(fleet, a, input, w);
              }),
              thrown_by([&] {
                auto a = alloc;
                balance_loads(fleet, a, input, w);
              }))
        << where;
    EXPECT_THROW(balance_loads_linear(fleet, ref_alloc, input.lambda, 0.5, w),
                 std::out_of_range)
        << where;
    EXPECT_EQ(thrown_by([&] {
                auto a = alloc;
                solve_load_lp_linear(fleet, a, input.lambda, 0.5, w);
              }),
              thrown_by([&] {
                auto a = alloc;
                balance_loads_linear(fleet, a, input.lambda, 0.5, w);
              }))
        << where;
  }
}

// --- certified market clearing ---------------------------------------------

/// One entry's supply terms: the active counts of its groups, in group
/// order, and the entry's response r.
struct EntryTerms {
  std::vector<double> active;
  double r = 0.0;
};

/// The clearing's two supply sums over `terms`, as the solver forms them: T
/// in group order over the products active[i] * r, and U = W * r with W the
/// in-order sum of the active counts.
struct SupplySums {
  double in_order = 0.0;
  double grouped = 0.0;
};

SupplySums supply_sums(const EntryTerms& terms) {
  SupplySums sums;
  double weight = 0.0;
  for (const double a : terms.active) {
    sums.in_order += a * terms.r;
    weight += a;
  }
  sums.grouped = weight * terms.r;
  return sums;
}

/// One large active count followed by n - 1 small ones, crafted so every
/// addition of the two sums rounds the worst way and the two err in opposite
/// directions.  `grouped_high`: W sits low in its binade and each small
/// count lies just above half an ulp of W, so W rounds up at every step,
/// while its product with r lies just below half an ulp of T, which sits one
/// binade up, so T rounds down at every step.  Otherwise the mirror image:
/// W rounds down and T rounds up.
EntryTerms worst_case_terms(std::size_t n, bool grouped_high) {
  EntryTerms terms;
  if (grouped_high) {
    terms.r = 2.0 - 0x1p-10;
    terms.active.push_back(2.0 / terms.r * (1.0 + 0x1p-12));
    terms.active.resize(n, 0x1p-52 * (0.5 + 0x1p-14));
  } else {
    terms.r = 1.0 + 0x1p-10;
    terms.active.push_back(1.0 + 0x1p-12);
    terms.active.resize(n, 0x1p-53 * (1.0 - 0x1p-12));
  }
  return terms;
}

TEST(IncrementalLp, ClearingMarginCoversWorstCaseRounding) {
  constexpr double kU = 0x1p-53;
  for (const bool grouped_high : {true, false}) {
    for (const std::size_t n : {std::size_t{64}, std::size_t{1000},
                                std::size_t{4097}}) {
      const SupplySums sums = supply_sums(worst_case_terms(n, grouped_high));
      const std::string where = (grouped_high ? "U > T" : "U < T") +
                                std::string(", n = ") + std::to_string(n);
      const double diff = sums.grouped - sums.in_order;
      ASSERT_EQ(diff > 0.0, grouped_high) << where;
      // Higham's bound for n terms over m = 1 entry: 2g/(1 - g) * U with
      // g = k u / (1 - k u), k = n + m.  The crafted sums come within 10 %
      // of it, and the margin is at least twice it.
      const std::size_t terms = n + 1;
      const double k = static_cast<double>(terms);
      const double g = k * kU / (1.0 - k * kU);
      const double bound = 2.0 * g / (1.0 - g) * sums.grouped;
      EXPECT_LE(std::abs(diff), bound) << where;
      EXPECT_GE(std::abs(diff), 0.9 * bound) << where;
      EXPECT_GE(clearing_margin(terms, sums.grouped, 0.0, 0.0), 2.0 * bound)
          << where;

      // Every certified decision is the reference's: sweep lambda across
      // both decision edges (gap = +-f_tol) from well inside the margin to
      // well past it.  Steps of |diff|/16 put lambdas between T and U, where
      // a margin below |diff| would certify the wrong side.
      int certified = 0;
      for (const double side : {1.0, -1.0}) {
        for (int j = -160; j <= 160; ++j) {
          const double edge = sums.grouped - side * 1e-9 * sums.grouped;
          const double lambda =
              edge - side * std::abs(diff) * static_cast<double>(j) / 16.0;
          const double f_tol = 1e-9 * std::max(1.0, lambda);
          const double filtered = sums.grouped - lambda;
          const double exact = sums.in_order - lambda;
          if (std::abs(filtered) >
              f_tol + clearing_margin(terms, sums.grouped, lambda, f_tol)) {
            ++certified;
            EXPECT_EQ(filtered > 0.0, exact > 0.0) << where << " j " << j;
            EXPECT_GT(std::abs(exact), f_tol) << where << " j " << j;
          }
        }
      }
      EXPECT_GT(certified, 0) << where;
    }
  }
  // A non-finite regrouped sum is never certified.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(inf - 1.0 > 1e-9 + clearing_margin(10, inf, 1.0, 1e-9));
  EXPECT_EQ(clearing_margin(std::size_t{1} << 27, 1.0, 1.0, 1e-9), inf);
}

/// The in-order sums and gap evaluations of the load-LP solves run by
/// `body`, read from a registry installed around it.
struct ClearingTally {
  std::int64_t entries = 0;
  std::int64_t gap_evaluations = 0;
  std::int64_t exact_sums = 0;
};

template <typename Body>
ClearingTally tally_solves(Body body) {
  obs::Registry registry;
  {
    const obs::GlobalRegistryScope scope(&registry);
    body();
  }
  return {registry.counter_value("load_lp.entries"),
          registry.counter_value("load_lp.gap_evaluations"),
          registry.counter_value("load_lp.exact_sums")};
}

TEST(IncrementalLp, CertifiedClearingBitExactOnLargeFleetsOfFewEntries) {
  // Fleets of 200-2000 groups whose active groups share 1-4 entries (server
  // type, level), with integer and fractional active counts: every result
  // must still be the reference's, through both entry points, while most
  // bisection steps are decided by the one-term-per-entry sum.
  struct Shape {
    std::size_t groups;
    std::size_t types;
    std::size_t levels;  ///< levels each type runs at
  };
  const Shape shapes[] = {{200, 1, 1},  {2000, 1, 1}, {200, 2, 1},
                          {1000, 1, 3}, {2000, 2, 2}, {2000, 4, 1}};
  util::Rng rng(20261019);
  int solves = 0;
  const ClearingTally tally = tally_solves([&] {
    for (const Shape& shape : shapes) {
      const dc::Fleet fleet = dc::make_default_fleet(
          {.total_servers = 40 * shape.groups,
           .group_count = shape.groups,
           .generations = shape.types});
      ASSERT_EQ(fleet.tables().type_group.size(), shape.types);
      for (const bool fractional : {false, true}) {
        dc::Allocation state(fleet.group_count());
        for (std::size_t g = 0; g < state.size(); ++g) {
          const std::size_t top = fleet.group(g).spec().level_count() - 1;
          state[g].level = top - (g / shape.types) % shape.levels;
          const double servers = fleet.server_counts()[g];
          const double share = rng.uniform(0.2, 1.0) * servers;
          state[g].active = fractional ? share : std::max(1.0, std::floor(share));
        }
        SlotWeights w = random_weights(rng);
        w.beta = rng.uniform(0.002, 0.05);
        const double capacity = dc::capped_capacity(fleet, state, w.gamma);
        for (int draw = 0; draw < 4; ++draw) {
          const std::string where =
              std::to_string(shape.groups) + " groups, " +
              std::to_string(shape.types * shape.levels) + " entries, " +
              (fractional ? "fractional" : "integer") + ", draw " +
              std::to_string(draw);
          SlotInput input{rng.uniform(0.05, 0.98) * capacity, 0.0,
                          rng.uniform(0.01, 0.3)};
          auto probe = state;
          balance_loads(fleet, probe, input, w);
          input.onsite_kw = rng.uniform(0.0, 1.5) *
                            allocation_facility_kw(fleet, probe, w.pue);
          expect_solve_bit_identical(fleet, state, input, w, where);
          const double mu = rng.uniform(0.0, 2.0);
          expect_linear_bit_identical(fleet, state, input.lambda, mu, w,
                                      where + " linear");
          solves += 2;
        }
      }
    }
  });
  ASSERT_GT(tally.gap_evaluations, 0);
  // Each solve priced at most 4 entries, and most bisection steps skipped
  // the in-order group sum (the two bracket endpoints always take it).
  EXPECT_LE(tally.entries, 4 * solves);
  EXPECT_LT(5 * tally.exact_sums, tally.gap_evaluations);
}

TEST(IncrementalLp, GsdChainOnDefaultFleetCertifiesMostBisectionSteps) {
  // The paper's 200-group fleet under one 500-iteration GSD chain: the
  // bisection must take the in-order group sum on under 10 % of its gap
  // evaluations, or the certified clearing is not actually in use.
  const dc::Fleet fleet = dc::make_default_fleet();
  SlotWeights w;
  w.V = 100.0;
  w.q = 0.5;
  w.beta = 0.01;
  w.gamma = 0.9;
  const SlotInput input{0.4 * w.gamma * fleet.max_capacity(),
                        0.2 * fleet.peak_power_kw(), 0.06};
  GsdConfig config;
  config.chains = 1;
  GsdResult result;
  const ClearingTally tally = tally_solves(
      [&] { result = GsdSolver(config).solve(fleet, input, w); });
  EXPECT_TRUE(result.solution.feasible);
  EXPECT_GT(tally.gap_evaluations, 100 * result.evaluations / 10);
  EXPECT_LT(10 * tally.exact_sums, tally.gap_evaluations);
  // The groups of a solve share a few dozen entries at most.
  EXPECT_LT(tally.entries, 40 * static_cast<std::int64_t>(result.evaluations));
}

TEST(ServerTypes, TablesFollowPueAndKeepLaterSolvesExact) {
  // The fleet tables hold no pue: scaled where used they are the specs'
  // pue-scaled expressions bit for bit at any pue, solving does not change
  // them, and a solve at a new pue after one at the old pue matches the
  // reference at the new pue.
  util::Rng rng(77);
  const auto fleet = random_fleet(rng);
  auto weights = random_weights(rng);
  weights.beta = 0.01;
  const double capacity =
      dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
  const SlotInput input{0.6 * capacity, 0.0, 0.07};

  auto first = full_alloc(fleet);
  solve_load_lp(fleet, first, input, weights);

  SlotWeights other = weights;
  other.pue = weights.pue + 0.25;
  const dc::FleetTables& tables = fleet.tables();
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    const auto& spec = fleet.group(g).spec();
    EXPECT_EQ(other.pue * tables.static_kw[g],
              other.pue * spec.static_power_kw());
    for (std::size_t k = 0; k < spec.level_count(); ++k) {
      const std::size_t i = tables.level_offset[g] + k;
      EXPECT_EQ(tables.rate[i], spec.level(k).service_rate);
      EXPECT_EQ(other.pue * tables.dynamic_slope[i],
                other.pue * spec.dynamic_slope(k));
    }
  }

  auto inc_alloc = full_alloc(fleet);
  const auto inc = solve_load_lp(fleet, inc_alloc, input, other);
  auto ref_alloc = full_alloc(fleet);
  const auto ref = balance_loads(fleet, ref_alloc, input, other);
  expect_bit_identical(ref, inc, ref_alloc, inc_alloc, "at the new pue");

  // And back at the old pue, after the new-pue solve.
  auto back_alloc = full_alloc(fleet);
  const auto back = solve_load_lp(fleet, back_alloc, input, weights);
  auto old_alloc = full_alloc(fleet);
  const auto old_ref = balance_loads(fleet, old_alloc, input, weights);
  expect_bit_identical(old_ref, back, old_alloc, back_alloc, "back at old pue");
}

// --- evaluate against the object model -------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A slot's outcome as the object model computes it: ServerGroup::power_kw
/// and ServerGroup::delay_cost summed in group order, then evaluate's Eq. 3
/// and Eq. 16 expressions.
SlotOutcome object_model_outcome(const dc::Fleet& fleet,
                                 const dc::Allocation& alloc,
                                 const SlotInput& input, const SlotWeights& w) {
  double it = 0.0;
  double delay_jobs = 0.0;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    const dc::GroupAllocation& a = alloc[g];
    it += fleet.group(g).power_kw(a.level, a.active, a.load);
    delay_jobs += fleet.group(g).delay_cost(a.level, a.active, a.load);
  }
  SlotOutcome out;
  out.it_power_kw = it;
  out.facility_power_kw = w.pue * it;
  out.brown_kwh =
      std::max(0.0, out.facility_power_kw - input.onsite_kw) * w.slot_hours;
  out.electricity_cost = out.brown_kwh * input.price;
  out.delay_jobs = delay_jobs;
  out.delay_cost = (w.beta * delay_jobs) * w.slot_hours;
  out.total_cost = out.electricity_cost + out.delay_cost;
  out.objective = w.V * out.total_cost + w.q * out.brown_kwh +
                  w.power_price * out.facility_power_kw * w.slot_hours;
  out.feasible = true;
  return out;
}

/// Expects `got` (an outcome of `alloc`), dc::it_power_kw and
/// allocation_facility_kw to equal the object model bit for bit.
void expect_object_model(const dc::Fleet& fleet, const dc::Allocation& alloc,
                         const SlotInput& input, const SlotWeights& w,
                         const SlotOutcome& got, const std::string& where) {
  ASSERT_TRUE(got.feasible) << where << ": " << got.infeasible_reason;
  EXPECT_TRUE(got.infeasible_reason.empty()) << where;
  const SlotOutcome want = object_model_outcome(fleet, alloc, input, w);
  const std::pair<const char*, double SlotOutcome::*> fields[] = {
      {"it_power_kw", &SlotOutcome::it_power_kw},
      {"facility_power_kw", &SlotOutcome::facility_power_kw},
      {"brown_kwh", &SlotOutcome::brown_kwh},
      {"electricity_cost", &SlotOutcome::electricity_cost},
      {"delay_jobs", &SlotOutcome::delay_jobs},
      {"delay_cost", &SlotOutcome::delay_cost},
      {"total_cost", &SlotOutcome::total_cost},
      {"objective", &SlotOutcome::objective}};
  for (const auto& [name, field] : fields) {
    EXPECT_TRUE(same_bits(got.*field, want.*field))
        << where << " " << name << ": " << got.*field << " vs "
        << want.*field;
  }
  EXPECT_TRUE(same_bits(dc::it_power_kw(fleet, alloc), want.it_power_kw))
      << where;
  EXPECT_TRUE(same_bits(allocation_facility_kw(fleet, alloc, w.pue),
                        want.facility_power_kw))
      << where;
}

TEST(Evaluate, MatchesTheObjectModelBitForBit) {
  // evaluate, dc::it_power_kw and allocation_facility_kw read the fleet
  // tables through dc::group_terms, and so does every load-LP outcome; the
  // object model is the independent reference.  Allocations come from
  // load-LP solves along GSD-style flip sequences, with integer and
  // fractional active counts, on random fleets and on degraded copies with
  // zero-server groups.  One group per scenario is then loaded just past
  // its service rate (inside the power model's domain), where Eq. 4 is
  // infinite.
  util::Rng rng(20261020);
  int compared = 0;
  int fractional = 0;
  int with_zero_server_group = 0;
  int saturated = 0;
  for (int scenario = 0; scenario < 100; ++scenario) {
    const dc::Fleet base = random_fleet(rng);
    const dc::Fleet degraded = random_degraded(rng, base);
    const dc::Fleet& fleet = scenario % 2 == 0 ? base : degraded;
    const SlotWeights w = random_weights(rng);
    const bool fractional_counts = scenario % 3 != 0;
    const double capacity =
        dc::capped_capacity(fleet, full_alloc(fleet), w.gamma);
    SlotInput input{rng.uniform(0.05, 0.6) * capacity, 0.0,
                    rng.uniform(0.01, 0.3)};
    auto probe = full_alloc(fleet);
    balance_loads(fleet, probe, input, w);
    input.onsite_kw =
        rng.bernoulli(0.3)
            ? 0.0
            : rng.uniform(0.0, 1.5) *
                  std::max(1.0, allocation_facility_kw(fleet, probe, w.pue));
    const bool has_zero_server_group =
        std::count(fleet.server_counts().begin(), fleet.server_counts().end(),
                   0.0) > 0;

    dc::Allocation state = full_alloc(fleet);
    dc::Allocation last = state;
    for (int flip = 0; flip < 18; ++flip) {
      dc::Allocation alloc = state;
      if (fractional_counts) {
        for (auto& a : alloc) a.active *= rng.uniform(0.3, 1.0);
      }
      gsd_flip(rng, base, state);
      state = clamp_to(fleet, state);
      const auto result = solve_load_lp(fleet, alloc, input, w);
      if (!result.feasible || !result.outcome.feasible) continue;
      const std::string where = "scenario " + std::to_string(scenario) +
                                " flip " + std::to_string(flip);
      expect_object_model(fleet, alloc, input, w,
                          evaluate(fleet, alloc, input, w), where);
      expect_object_model(fleet, alloc, input, w, result.outcome,
                          where + " solve");
      last = alloc;
      ++compared;
      fractional += fractional_counts ? 1 : 0;
      with_zero_server_group += has_zero_server_group ? 1 : 0;
    }

    // A group of 1e-7 servers carrying 1 + 5e-10 times their rate passes
    // the utilization cap's absolute slack and the power model's 1e-9 rate
    // tolerance: its Eq. 4 term is +inf.
    for (std::size_t g = 0; g < last.size(); ++g) {
      if (fleet.server_counts()[g] == 0.0) continue;
      const double rate =
          fleet.group(g).spec().level(last[g].level).service_rate;
      last[g].active = 1e-7;
      last[g].load = 1e-7 * rate * (1.0 + 5e-10);
      SlotInput at_rate = input;
      at_rate.lambda = dc::total_load(last);
      const SlotOutcome got = evaluate(fleet, last, at_rate, w);
      EXPECT_TRUE(std::isinf(got.delay_jobs))
          << "scenario " << scenario << " group " << g;
      expect_object_model(fleet, last, at_rate, w, got,
                          "scenario " + std::to_string(scenario) +
                              " saturated group " + std::to_string(g));
      ++saturated;
      break;
    }
  }
  EXPECT_GE(compared, 1000);
  EXPECT_GE(fractional, 600);
  EXPECT_GE(with_zero_server_group, 300);
  EXPECT_GE(saturated, 90);
}

TEST(Evaluate, OutsideThePowerModelsDomainIsInfeasibleNotAThrow) {
  // Both sides of each edge of the power model's domain, on group 1 of a
  // two-group fleet of 10 servers per group (top rate 10 req/s), plus NaN
  // and +-inf for the active count, the load and lambda.  Inside the domain
  // evaluate agrees with the object model; outside it returns an infeasible
  // outcome naming the group, never a throw, and dc::it_power_kw rejects the
  // same allocation with std::domain_error.  Just outside the edges the old
  // 1e-6 slack let these allocations through to the power model, which
  // threw, and NaN slipped through to a feasible NaN cost.
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 10);
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double rate = fleet.group(1).spec().level(3).service_rate;
  struct Case {
    std::string name;
    double active;
    double load;
    bool inside;
  };
  const std::vector<Case> cases = {
      {"active 0", 0.0, 0.0, true},
      {"active -5e-7", -5e-7, 0.0, false},
      {"active count", 10.0, 0.0, true},
      {"active count * (1 + 5e-10)", 10.0 * (1.0 + 5e-10), 0.0, true},
      {"active count * (1 + 5e-7)", 10.0 * (1.0 + 5e-7), 0.0, false},
      {"load 0", 2.0, 0.0, true},
      {"load -5e-7", 2.0, -5e-7, false},
      {"idle load 0", 0.0, 0.0, true},
      {"idle load 5e-7", 0.0, 5e-7, false},
      {"per-server load rate * (1 + 5e-10)", 1e-7,
       1e-7 * rate * (1.0 + 5e-10), true},
      {"per-server load rate * (1 + 5e-9)", 1e-7, 1e-7 * rate * (1.0 + 5e-9),
       false},
      {"active NaN", nan, 0.0, false},
      {"active +inf", inf, 0.0, false},
      {"active -inf", -inf, 0.0, false},
      {"load NaN", 2.0, nan, false},
      {"load +inf", 2.0, inf, false},
      {"load -inf", 2.0, -inf, false},
      {"active and load NaN", nan, nan, false},
  };
  for (const Case& c : cases) {
    dc::Allocation alloc(2);
    alloc[0] = {3, 4.0, 20.0};
    alloc[1] = {3, c.active, c.load};
    // Lambda matches whatever the allocation serves, so only the group's
    // own check can reject it.
    const SlotInput input{dc::total_load(alloc), 0.0, 0.06};
    SlotOutcome got;
    ASSERT_NO_THROW(got = evaluate(fleet, alloc, input, w)) << c.name;
    if (c.inside) {
      expect_object_model(fleet, alloc, input, w, got, c.name);
      continue;
    }
    EXPECT_FALSE(got.feasible) << c.name;
    EXPECT_EQ(got.infeasible_reason.rfind("group 1: ", 0), 0u)
        << c.name << ": " << got.infeasible_reason;
    EXPECT_THROW(dc::it_power_kw(fleet, alloc), std::domain_error) << c.name;
  }

  // A non-finite lambda never matches the served load.
  dc::Allocation alloc(2);
  alloc[0] = {3, 4.0, 20.0};
  for (const double lambda : {nan, inf, -inf}) {
    SlotOutcome got;
    ASSERT_NO_THROW(got = evaluate(fleet, alloc, {lambda, 0.0, 0.06}, w))
        << lambda;
    EXPECT_FALSE(got.feasible) << lambda;
    EXPECT_EQ(got.infeasible_reason,
              "served load does not match lambda (constraint 8)")
        << lambda;
  }
}

}  // namespace
}  // namespace coca::opt

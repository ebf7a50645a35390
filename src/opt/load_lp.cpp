#include "opt/load_lp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/solvers.hpp"

namespace coca::opt {
namespace {

constexpr double kTiny = 1e-12;  // matches load_balancer.cpp

// Positive floor for the masked-out lanes of the response kernel: selected
// lanes (nu above the activation threshold) always have nu - mu*c >
// V*beta/x >> this, so flooring never perturbs a selected value; it only
// keeps the speculative divide on unselected lanes well defined.
constexpr double kDenomFloor = std::numeric_limits<double>::min();

/// Marks a table slot that no entry of the current lane build holds.
constexpr std::size_t kNoEntry = std::numeric_limits<std::size_t>::max();

/// SoA lanes for the active classes of one solve, in two sets.  The
/// per-group lanes are the reference's class list element for element.  The
/// per-entry lanes hold one entry for each distinct (server type, level)
/// among the active groups: every group of a type reads bitwise-equal tables
/// (dc::FleetTables), so its best response at any price is its entry's bits.
struct Lanes {
  // Per active group.
  std::vector<std::size_t> group;
  std::vector<std::size_t> entry;  ///< index into the per-entry lanes
  std::vector<double> active;
  std::vector<double> load;
  std::vector<std::size_t> order;  ///< greedy_fill scratch
  // Per entry.
  std::vector<std::size_t> key;  ///< the type's first-group table slot
  std::vector<double> weight;    ///< in-order sum of its groups' active counts
  std::vector<double> rate;
  std::vector<double> slope;   ///< pue * dynamic slope
  std::vector<double> cap;     ///< gamma * rate
  std::vector<double> denom;   ///< rate * (1 - gamma)^2, for the bracket
  // Per-linear-solve invariants (depend on mu and V*beta).
  std::vector<double> ms;   ///< mu * slope
  std::vector<double> thr;  ///< activation threshold mu*c + V*beta/x
  std::vector<double> vbr;  ///< V*beta * x
  std::vector<double> hib;  ///< per-entry upper bracket bound
  std::vector<double> resp;
  /// Table slot -> entry index, kNoEntry between builds: a build resets
  /// exactly the slots it set (`key`), so it costs O(active groups) on any
  /// fleet and the next solve, whatever its fleet, starts from a clean map.
  std::vector<std::size_t> slot_entry;
  /// The reference's in-order active*cap capacity, reused by every
  /// feasibility gate of the solve so the predicate sees one set of bits.
  double capacity = 0.0;
  // Tallies of the solve, for the `load_lp.*` counters.
  std::int64_t gap_evaluations = 0;
  std::int64_t exact_sums = 0;  ///< gap evaluations that summed in group order
};

/// The calling thread's lanes, rebuilt at the start of every solve (like the
/// span stack in obs/span.cpp): a thread runs one solve at a time.  Returns
/// nullptr when an active group lies outside the fleet or its level outside
/// the group's ladder: the caller then defers to the reference, which
/// throws its own error.
Lanes* build_lanes(const dc::Fleet& fleet, const dc::Allocation& alloc,
                   const SlotWeights& weights) {
  thread_local Lanes lanes;
  const dc::FleetTables& tables = fleet.tables();
  if (alloc.size() > fleet.group_count()) return nullptr;
  if (lanes.slot_entry.size() < tables.rate.size()) {
    lanes.slot_entry.resize(tables.rate.size(), kNoEntry);
  }
  const double one_minus_gamma = 1.0 - weights.gamma;
  for (auto* v : {&lanes.group, &lanes.entry, &lanes.key}) v->clear();
  for (auto* v : {&lanes.active, &lanes.weight, &lanes.rate, &lanes.slope,
                  &lanes.cap, &lanes.denom}) {
    v->clear();
  }
  bool in_ladder = true;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    if (alloc[g].active <= kTiny) continue;
    const std::size_t level = alloc[g].level;
    if (level >= tables.level_offset[g + 1] - tables.level_offset[g]) {
      in_ladder = false;
      break;
    }
    const std::size_t first = tables.type_group[tables.group_type[g]];
    const std::size_t slot = tables.level_offset[first] + level;
    std::size_t& e = lanes.slot_entry[slot];
    if (e == kNoEntry) {
      // Identical expressions to active_classes() and the reference bracket.
      const double rate = tables.rate[slot];
      e = lanes.key.size();
      lanes.key.push_back(slot);
      lanes.weight.push_back(0.0);
      lanes.rate.push_back(rate);
      lanes.slope.push_back(weights.pue * tables.dynamic_slope[slot]);
      lanes.cap.push_back(weights.gamma * rate);
      lanes.denom.push_back(rate * one_minus_gamma * one_minus_gamma);
    }
    lanes.group.push_back(g);
    lanes.entry.push_back(e);
    lanes.active.push_back(alloc[g].active);
    lanes.weight[e] += alloc[g].active;
  }
  for (const std::size_t slot : lanes.key) lanes.slot_entry[slot] = kNoEntry;
  if (!in_ladder) return nullptr;
  for (auto* v : {&lanes.ms, &lanes.thr, &lanes.vbr, &lanes.hib, &lanes.resp}) {
    v->resize(lanes.key.size());
  }
  const std::size_t n = lanes.group.size();
  lanes.load.resize(n);
  double capacity = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    capacity += lanes.active[i] * lanes.cap[lanes.entry[i]];
  }
  lanes.capacity = capacity;
  lanes.gap_evaluations = 0;
  lanes.exact_sums = 0;
  return &lanes;
}

/// Best response of every entry at price nu, into `resp`.
void price_entries(Lanes& lanes, double nu) {
  const std::size_t m = lanes.key.size();
  const double* ms = lanes.ms.data();
  const double* thr = lanes.thr.data();
  const double* vbr = lanes.vbr.data();
  const double* rate = lanes.rate.data();
  const double* cap = lanes.cap.data();
  double* resp = lanes.resp.data();
  // Element-wise best response a(nu) = clamp(x - sqrt(V*beta*x/(nu - mu*c)),
  // 0, gamma*x), once per entry over contiguous arrays: no branches in the
  // loop body, so the divide/sqrt vectorize; the select reproduces the
  // reference's threshold branch bit-for-bit (unselected lanes are exactly 0).
  for (std::size_t e = 0; e < m; ++e) {
    const double denom = std::max(nu - ms[e], kDenomFloor);
    double a = rate[e] - std::sqrt(vbr[e] / denom);
    a = std::min(std::max(a, 0.0), cap[e]);
    resp[e] = nu > thr[e] ? a : 0.0;
  }
}

/// The reference's market-clearing supply T: a scalar in-order reduction over
/// the groups, since FP addition is not associative.
double group_supply(const Lanes& lanes) {
  const std::size_t n = lanes.group.size();
  const double* active = lanes.active.data();
  const double* resp = lanes.resp.data();
  const std::size_t* entry = lanes.entry.data();
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += active[i] * resp[entry[i]];
  return total;
}

/// U = sum over entries of weight * resp: T regrouped, one term per entry.
double entry_supply(const Lanes& lanes) {
  const std::size_t m = lanes.key.size();
  double total = 0.0;
  for (std::size_t e = 0; e < m; ++e) total += lanes.weight[e] * lanes.resp[e];
  return total;
}

void settle_residual(Lanes& lanes, double lambda) {
  // Mirrors the reference settle_residual pass-for-pass.
  const std::size_t n = lanes.group.size();
  const std::vector<std::size_t>& entry = lanes.entry;
  std::vector<double>& load = lanes.load;
  for (int pass = 0; pass < 4; ++pass) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += load[i];
    const double residual = lambda - total;
    if (std::abs(residual) <= 1e-9 * std::max(1.0, lambda)) return;
    if (residual > 0.0) {
      double headroom = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        headroom += lanes.active[i] * lanes.cap[entry[i]] - load[i];
      }
      if (headroom <= kTiny) return;
      for (std::size_t i = 0; i < n; ++i) {
        const double room = lanes.active[i] * lanes.cap[entry[i]] - load[i];
        load[i] += residual * room / headroom;
      }
    } else {
      const double shrink = lambda / std::max(total, kTiny);
      for (std::size_t i = 0; i < n; ++i) load[i] *= shrink;
    }
  }
}

void greedy_fill(Lanes& lanes, double lambda, double mu) {
  // The group lanes are the reference's class list element-for-element and
  // read their entry's bits, so the (unstable) sort produces the identical
  // permutation and fill order.
  const std::vector<std::size_t>& entry = lanes.entry;
  std::vector<std::size_t>& order = lanes.order;
  order.resize(lanes.group.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return mu * lanes.slope[entry[a]] < mu * lanes.slope[entry[b]];
  });
  double remaining = lambda;
  for (std::size_t idx : order) {
    const double cap = lanes.active[idx] * lanes.cap[entry[idx]];
    const double take = std::min(cap, remaining);
    lanes.load[idx] = take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
}

/// `balance_loads_linear` over the built lanes: zeroes every load, clears
/// the market canonically and scatters the class loads back into `alloc`.
/// Returns the clearing price nu, or -1 when the active capacity cannot
/// carry lambda.
double solve_linear(Lanes& lanes, dc::Allocation& alloc, double lambda,
                    double mu, const SlotWeights& weights) {
  for (auto& a : alloc) a.load = 0.0;
  if (lambda <= kTiny) return 0.0;
  if (lanes.capacity < lambda * (1.0 - 1e-9)) return -1.0;

  const std::size_t n = lanes.group.size();
  for (std::size_t i = 0; i < n; ++i) lanes.load[i] = 0.0;
  const double v_beta = weights.V * weights.beta;
  double nu = 0.0;
  if (v_beta <= kTiny) {
    greedy_fill(lanes, lambda, mu);
  } else {
    // Invariants of this linear solve, hoisted out of the bisection: they
    // depend only on (entry tables, mu, V*beta).  The bracket bounds are
    // then a divide-free min/max scan over the entries; min/max are exact in
    // any order and over repeated values, so the scan is bit-identical to
    // the reference's fused per-class loop.
    const std::size_t m = lanes.key.size();
    for (std::size_t e = 0; e < m; ++e) {
      lanes.ms[e] = mu * lanes.slope[e];
      lanes.thr[e] = lanes.ms[e] + v_beta / lanes.rate[e];
      lanes.vbr[e] = v_beta * lanes.rate[e];
      lanes.hib[e] = lanes.ms[e] + v_beta / lanes.denom[e];
    }
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      lo = std::min(lo, lanes.thr[e]);
      hi = std::max(hi, lanes.hib[e]);
    }
    hi = hi * (1.0 + 1e-9) + kTiny;
    util::BisectionOptions options;
    options.x_tol = std::max(1e-14, (hi - lo) * 1e-13);
    options.f_tol = 1e-9 * std::max(1.0, lambda);
    options.max_iterations = 200;
    // Certified clearing (DESIGN §4.6): bisect reads only the sign of the
    // gap and its side of +-f_tol at a midpoint, and U decides both exactly
    // when fl(U - lambda) clears f_tol by the rounding margin; otherwise the
    // gap is the reference's fl(T - lambda).  NaN fails the comparison and
    // an infinite U makes the margin infinite, so neither is ever certified.
    // The bracket endpoints stay exact: bisect compares their magnitudes.
    const double f_tol = options.f_tol;
    const std::size_t terms = n + m;
    const auto gap = [&](double price) {
      price_entries(lanes, price);
      ++lanes.gap_evaluations;
      if (price != lo && price != hi) {
        const double grouped = entry_supply(lanes);
        const double certified = grouped - lambda;
        if (std::abs(certified) >
            f_tol + clearing_margin(terms, grouped, lambda, f_tol)) {
          return certified;
        }
      }
      ++lanes.exact_sums;
      return group_supply(lanes) - lambda;
    };
    nu = util::bisect(std::cref(gap), lo, hi, options).x;
    // Re-evaluate the responses at the clearing price, as the reference's
    // load pass does.
    price_entries(lanes, nu);
    for (std::size_t i = 0; i < n; ++i) {
      lanes.load[i] = lanes.active[i] * lanes.resp[lanes.entry[i]];
    }
  }
  settle_residual(lanes, lambda);
  for (std::size_t i = 0; i < n; ++i) {
    alloc[lanes.group[i]].load = lanes.load[i];
  }
  return nu;
}

/// The installed registry's `load_lp.*` counters, resolved once per thread
/// and registry: a solve then bumps them without a locked name lookup.
struct SolveCounters {
  std::uint64_t registry_id = 0;  ///< obs::Registry::id() is never 0
  obs::Counter* entries = nullptr;
  obs::Counter* gap_evaluations = nullptr;
  obs::Counter* exact_sums = nullptr;
};

/// Adds one solve's tallies to the installed registry's `load_lp.*`
/// counters: the entries it priced, its gap evaluations, and the in-order
/// group sums among them.
void record_solve(const Lanes& lanes) {
  obs::Registry* registry = obs::global();
  if (registry == nullptr) return;
  thread_local SolveCounters counters;
  if (counters.registry_id != registry->id()) {
    counters = {registry->id(), &registry->counter("load_lp.entries"),
                &registry->counter("load_lp.gap_evaluations"),
                &registry->counter("load_lp.exact_sums")};
  }
  counters.entries->add(static_cast<std::int64_t>(lanes.key.size()));
  counters.gap_evaluations->add(lanes.gap_evaluations);
  counters.exact_sums->add(lanes.exact_sums);
}

}  // namespace

double clearing_margin(std::size_t terms, double grouped_supply,
                       double lambda, double f_tol) {
  // Past 2^26 terms the factor-two slack of the derivation ((k + 2)(1 -
  // 2ku) >= k needs k(k + 2)u <= 1) is no longer proven: never certify.
  if (terms > (std::size_t{1} << 26)) {
    return std::numeric_limits<double>::infinity();
  }
  constexpr double kUnitRoundoff = 0x1p-53;
  return 4.0 * static_cast<double>(terms + 2) * kUnitRoundoff *
         (grouped_supply + std::abs(lambda) + f_tol);
}

LoadBalanceResult solve_load_lp(const dc::Fleet& fleet, dc::Allocation& alloc,
                                const SlotInput& input,
                                const SlotWeights& weights) {
  const obs::ScopedSpan span("load_lp");
  // One lane build covers the whole solve: the allocation's levels and
  // active counts are fixed until we return, so every regime (and each mu
  // iterate of the boundary bisection) re-clears the same classes.
  Lanes* lanes = build_lanes(fleet, alloc, weights);
  if (lanes == nullptr) return balance_loads(fleet, alloc, input, weights);
  const auto linear = [&](double mu) {
    return solve_linear(*lanes, alloc, input.lambda, mu, weights);
  };
  LoadBalanceResult result =
      balance_kinked(fleet, alloc, input, weights, std::cref(linear));
  record_solve(*lanes);
  return result;
}

double solve_load_lp_linear(const dc::Fleet& fleet, dc::Allocation& alloc,
                            double lambda, double mu,
                            const SlotWeights& weights) {
  Lanes* lanes = build_lanes(fleet, alloc, weights);
  if (lanes == nullptr) {
    return balance_loads_linear(fleet, alloc, lambda, mu, weights);
  }
  const double nu = solve_linear(*lanes, alloc, lambda, mu, weights);
  record_solve(*lanes);
  return nu;
}

}  // namespace coca::opt

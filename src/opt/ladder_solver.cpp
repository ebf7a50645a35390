#include "opt/ladder_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "obs/metrics.hpp"
#include "util/solvers.hpp"

namespace coca::opt {
namespace {

constexpr double kTiny = 1e-12;

/// Per-server cost of running at level data (rate s, facility static power
/// ps, facility dynamic slope c) with per-server load a.
double server_cost(double mu, double v_beta, double ps, double c, double s,
                   double a) {
  return mu * (ps + c * a) + v_beta * a / (s - a);
}

/// Per-server best response load to workload price nu.
double response(double nu, double mu, double v_beta, double c, double s,
                double gamma) {
  const double threshold = mu * c + v_beta / s;
  if (nu <= threshold) return 0.0;
  const double a = s - std::sqrt(v_beta * s / (nu - mu * c));
  return std::clamp(a, 0.0, gamma * s);
}

/// A server type's best (level, per-server load, profit) at workload price nu.
struct Response {
  std::size_t level = 0;
  double load = 0.0;
  double profit = 0.0;  ///< per-server profit nu*a - phi(a)
};

/// Best response of the server type whose tables are group `first`'s: a pure
/// function of those tables and the prices, so every group of the type
/// shares it bit for bit.
Response best_response(const LoadLpContext::FleetTables& tables,
                       std::size_t first, double nu, double mu, double v_beta,
                       double gamma) {
  const std::size_t begin = tables.level_offset[first];
  const std::size_t end = tables.level_offset[first + 1];
  const double static_kw = tables.facility_static[first];
  Response best;
  bool found = false;
  for (std::size_t i = begin; i < end; ++i) {
    const double rate = tables.rate[i];
    const double slope = tables.facility_slope[i];
    const double a = response(nu, mu, v_beta, slope, rate, gamma);
    if (a <= kTiny) continue;
    const double profit =
        nu * a - server_cost(mu, v_beta, static_kw, slope, rate, a);
    if (!found || profit > best.profit) {
      best = {i - begin, a, profit};
      found = true;
    }
  }
  if (!found || best.profit <= 0.0) return {};
  return best;
}

/// Price at which the type first becomes profitable to activate: min over
/// levels of the average cost at the jointly optimal load a*.
double break_even(const LoadLpContext::FleetTables& tables, std::size_t first,
                  double mu, double v_beta, double gamma) {
  const double static_kw = tables.facility_static[first];
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = tables.level_offset[first];
       i < tables.level_offset[first + 1]; ++i) {
    const double rate = tables.rate[i];
    const double theta = std::sqrt(mu * static_kw / v_beta);
    double a = rate * theta / (1.0 + theta);
    a = std::clamp(a, 1e-9 * rate, gamma * rate);
    best = std::min(best, server_cost(mu, v_beta, static_kw,
                                      tables.facility_slope[i], rate, a) /
                              a);
  }
  return best;
}

/// Pure energy-minimizing provisioning for the degenerate beta == 0 case:
/// activate the most efficient (group, level) slices in merit order at the
/// utilization cap.
dc::Allocation energy_greedy(const dc::Fleet& fleet, double lambda, double mu,
                             const SlotWeights& weights) {
  struct Slice {
    std::size_t group;
    std::size_t level;
    double unit_cost;
    double capacity;
  };
  std::vector<Slice> slices;
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    const auto& group = fleet.group(g);
    for (std::size_t k = 0; k < group.spec().level_count(); ++k) {
      const auto& lv = group.spec().level(k);
      const double a = weights.gamma * lv.service_rate;
      const double cost =
          mu * weights.pue *
          (group.spec().static_power_kw() + group.spec().dynamic_slope(k) * a) /
          a;
      slices.push_back({g, k, cost,
                        static_cast<double>(group.server_count()) * a});
    }
  }
  std::sort(slices.begin(), slices.end(),
            [](const Slice& a, const Slice& b) { return a.unit_cost < b.unit_cost; });
  dc::Allocation alloc(fleet.group_count());
  std::vector<bool> used(fleet.group_count(), false);
  double remaining = lambda;
  for (const auto& s : slices) {
    if (remaining <= 0.0) break;
    if (used[s.group]) continue;  // one level per group
    used[s.group] = true;
    const double take = std::min(s.capacity, remaining);
    const double per = weights.gamma *
                       fleet.group(s.group).spec().level(s.level).service_rate;
    alloc[s.group].level = s.level;
    alloc[s.group].active = std::ceil(take / per - 1e-9);
    alloc[s.group].load = take;
    remaining -= take;
  }
  return alloc;
}

}  // namespace

SlotSolution LadderSolver::solve_linear(const dc::Fleet& fleet,
                                        const SlotInput& input,
                                        const SlotWeights& weights, double mu,
                                        LoadLpContext& lp) const {
  SlotSolution solution;
  const double lambda = input.lambda;
  const double v_beta = weights.V * weights.beta;

  if (mu <= kTiny) {
    // Free energy: delay-only objective; all servers on at top speed.
    solution.alloc = all_on_max(fleet, lambda, weights.gamma);
    lp.solve_linear(solution.alloc, lambda, 0.0, weights);
  } else if (v_beta <= kTiny) {
    solution.alloc = energy_greedy(fleet, lambda, mu, weights);
    lp.solve_linear(solution.alloc, lambda, mu, weights);
  } else {
    // Market clearing: find the workload price at which the fleet's supply
    // meets lambda.  Each price evaluates one best response per server type
    // (DESIGN.md §4.2); the supply sums servers * load in group order.
    const auto tables = lp.tables(weights);
    const std::size_t groups = tables.group_type.size();
    std::vector<Response> by_type(tables.type_group.size());
    auto respond = [&](double nu) {
      for (std::size_t t = 0; t < by_type.size(); ++t) {
        by_type[t] = best_response(tables, tables.type_group[t], nu, mu,
                                   v_beta, weights.gamma);
      }
    };
    auto supply = [&](double nu) {
      respond(nu);
      double total = 0.0;
      for (std::size_t g = 0; g < groups; ++g) {
        total += tables.servers[g] * by_type[tables.group_type[g]].load;
      }
      return total;
    };
    // Upper bracket: a price at which *every* group is profitable at the
    // utilization cap, so supply(hi) equals the full gamma-capped capacity.
    // That requires hi to exceed both the marginal cost at a = gamma*s (so
    // the response saturates) and the average cost there (so profit > 0).
    // A max is exact and order-free, so one pass per type suffices.
    double hi = 0.0;
    for (const std::size_t first : tables.type_group) {
      const double static_kw = tables.facility_static[first];
      for (std::size_t i = tables.level_offset[first];
           i < tables.level_offset[first + 1]; ++i) {
        const double rate = tables.rate[i];
        const double slope = tables.facility_slope[i];
        const double a_cap = weights.gamma * rate;
        const double marginal =
            mu * slope + v_beta * rate / ((rate - a_cap) * (rate - a_cap));
        const double average =
            server_cost(mu, v_beta, static_kw, slope, rate, a_cap) / a_cap;
        hi = std::max({hi, marginal, average});
      }
    }
    hi = hi * (1.0 + 1e-6) + kTiny;
    // supply() is monotone but has activation jumps (groups switch on in a
    // bang-bang fashion), so we keep the bracket's *upper* side: the smallest
    // price found with supply >= lambda.  The trimming below then sizes the
    // marginal group down to close any oversupply.
    double lo_price = 0.0;
    double nu_star = hi;
    for (int iter = 0; iter < 100; ++iter) {
      const double mid = 0.5 * (lo_price + nu_star);
      const double s = supply(mid);
      if (s >= lambda) {
        nu_star = mid;
        if (s <= lambda * (1.0 + 1e-9)) break;
      } else {
        lo_price = mid;
      }
      if (nu_star - lo_price <= 1e-12 * hi) break;
    }

    // Build the bang-bang activation at nu*, then trim oversupply starting
    // from the least efficient (highest break-even) active groups so the
    // marginal group is partially sized.  Groups enter in group order with
    // their type's response, so the sort sees the per-group sequence.
    struct Active {
      std::size_t group;
      std::size_t level;
      double per_load;
      double supply;
      double break_even;
    };
    respond(nu_star);
    std::vector<double> type_break_even(by_type.size());
    for (std::size_t t = 0; t < by_type.size(); ++t) {
      if (by_type[t].load <= kTiny) continue;
      type_break_even[t] = break_even(tables, tables.type_group[t], mu, v_beta,
                                      weights.gamma);
    }
    std::vector<Active> actives;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t t = tables.group_type[g];
      const Response& r = by_type[t];
      if (r.load <= kTiny) continue;
      actives.push_back({g, r.level, r.load, tables.servers[g] * r.load,
                         type_break_even[t]});
    }
    double total = 0.0;
    for (const auto& a : actives) total += a.supply;
    std::sort(actives.begin(), actives.end(), [](const Active& a, const Active& b) {
      return a.break_even > b.break_even;
    });
    solution.alloc = dc::Allocation(fleet.group_count());
    for (auto& a : actives) {
      double servers = tables.servers[a.group];
      if (total - a.supply >= lambda) {
        total -= a.supply;  // drop entirely
        continue;
      }
      if (total > lambda) {
        // Marginal group: size it to close the gap.
        const double needed = a.supply - (total - lambda);
        servers = std::clamp(needed / a.per_load, 0.0, servers);
        total = lambda;
      }
      if (config_.integer_counts) servers = std::ceil(servers - 1e-9);
      solution.alloc[a.group].level = a.level;
      solution.alloc[a.group].active = servers;
    }
    const double nu = lp.solve_linear(solution.alloc, lambda, mu, weights);
    if (nu < 0.0) {
      // Rounding starved capacity (can only happen in tiny fleets): fall
      // back to the always-feasible configuration.
      solution.alloc = all_on_max(fleet, lambda, weights.gamma);
      lp.solve_linear(solution.alloc, lambda, mu, weights);
    }
  }

  solution.outcome = evaluate(fleet, solution.alloc, input, weights);
  solution.feasible = solution.outcome.feasible;
  solution.effective_price = mu;
  return solution;
}

// OBS-EXEMPT(callers open the "ladder_solve" span for this stage)
// Opening one here too would change the pinned span goldens.
SlotSolution LadderSolver::solve(const dc::Fleet& fleet, const SlotInput& input,
                                 const SlotWeights& weights,
                                 LoadLpContext* lp) const {
  obs::count("ladder.solves");
  std::optional<LoadLpContext> local;
  if (lp == nullptr) lp = &local.emplace(fleet);
  SlotSolution solution;
  if (input.lambda <= kTiny) {
    solution.alloc = all_off(fleet);
    solution.outcome = evaluate(fleet, solution.alloc, input, weights);
    solution.feasible = true;
    solution.regime = PowerRegime::kRenewable;
    return solution;
  }
  if (!slot_feasible(fleet, input.lambda, weights.gamma)) {
    solution.alloc = all_off(fleet);
    solution.outcome.infeasible_reason =
        "lambda exceeds the gamma-capped fleet capacity";
    return solution;
  }

  const double mu_full = weights.brown_price(input.price);

  // Regime A: optimum draws grid power.
  solution = solve_linear(fleet, input, weights, mu_full, *lp);
  solution.regime = PowerRegime::kGridDraw;
  if (solution.outcome.facility_power_kw < input.onsite_kw * (1.0 - 1e-9)) {
    // Regime B: free energy below the on-site supply (only the facility-
    // power price — the peak-power extension's multiplier — remains).
    const double mu_floor = weights.power_price;
    SlotSolution delay_min = solve_linear(fleet, input, weights, mu_floor, *lp);
    if (delay_min.outcome.facility_power_kw <=
        input.onsite_kw * (1.0 + 1e-9)) {
      delay_min.regime = PowerRegime::kRenewable;
      solution = delay_min;
    } else {
      // Boundary: pin facility power to the on-site supply.
      auto power_gap = [&](double mu) {
        return solve_linear(fleet, input, weights, mu, *lp)
                   .outcome.facility_power_kw -
               input.onsite_kw;
      };
      util::BisectionOptions options;
      options.x_tol = std::max(1e-12, mu_full * 1e-6);
      options.f_tol = 1e-4 * std::max(1.0, input.onsite_kw);
      options.max_iterations = 60;
      const auto boundary = util::bisect(power_gap, mu_floor, mu_full, options);
      SlotSolution pinned = solve_linear(fleet, input, weights, boundary.x, *lp);
      pinned.regime = PowerRegime::kBoundary;
      // Keep whichever of the three candidates scores best on the true
      // objective (the kinked objective is what evaluate() reports).
      if (pinned.outcome.objective < solution.outcome.objective) solution = pinned;
      if (delay_min.outcome.objective < solution.outcome.objective) {
        delay_min.regime = PowerRegime::kRenewable;
        solution = delay_min;
      }
    }
  }

  for (int pass = 0; pass < config_.polish_passes; ++pass) {
    if (!polish(fleet, input, weights, solution, *lp)) break;
  }
  return solution;
}

bool LadderSolver::polish(const dc::Fleet& fleet, const SlotInput& input,
                          const SlotWeights& weights, SlotSolution& solution,
                          LoadLpContext& lp) const {
  bool improved = false;
  std::vector<dc::Allocation> batch;
  std::vector<LoadBalanceResult> balanced;
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    const auto& group = fleet.group(g);
    const double servers = static_cast<double>(group.server_count());
    const double step =
        std::max(1.0, std::floor(servers * config_.polish_count_step));
    const double current_active = solution.alloc[g].active;
    std::vector<double> counts = {current_active - step, current_active + step,
                                  0.0, servers};
    // Batch-evaluate the whole (level, count) grid for this group.  Each
    // candidate fully determines its solve (levels/counts are read, loads
    // are overwritten), so evaluating upfront and replaying the sequential
    // adopt/skip logic below reproduces the one-at-a-time loop bit-for-bit;
    // mid-grid adoptions only change group g's entry, which every candidate
    // overwrites anyway.
    batch.clear();
    for (std::size_t k = 0; k < group.spec().level_count(); ++k) {
      for (double count : counts) {
        count = std::clamp(count, 0.0, servers);
        if (config_.integer_counts) count = std::round(count);
        batch.push_back(solution.alloc);
        batch.back()[g].level = k;
        batch.back()[g].active = count;
      }
    }
    lp.solve_batch(batch, input, weights, balanced);
    std::size_t idx = 0;
    for (std::size_t k = 0; k < group.spec().level_count(); ++k) {
      for (double count : counts) {
        count = std::clamp(count, 0.0, servers);
        if (config_.integer_counts) count = std::round(count);
        const std::size_t i = idx++;
        if (k == solution.alloc[g].level && count == current_active) continue;
        if (balanced[i].feasible &&
            balanced[i].outcome.objective <
                solution.outcome.objective * (1.0 - 1e-10)) {
          solution.alloc = batch[i];
          solution.outcome = balanced[i].outcome;
          solution.regime = balanced[i].regime;
          solution.effective_price = balanced[i].effective_price;
          improved = true;
        }
      }
    }
  }
  return improved;
}

}  // namespace coca::opt

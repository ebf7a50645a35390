#include "opt/load_balancer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "util/solvers.hpp"

namespace coca::opt {
namespace {

constexpr double kTiny = 1e-12;

/// The load LP's boundary search (`balance_kinked`).
constexpr KinkSearch kLoadSearch{1e-10, 1e-6, 100};

/// One active (group, level) slice seen by the dual decomposition: rate,
/// facility-referenced dynamic slope, active count.
struct ServerClass {
  std::size_t group = 0;
  double rate = 0.0;    ///< x (req/s per server)
  double slope = 0.0;   ///< pue * p_c(x)/x (kW per req/s)
  double active = 0.0;  ///< n > 0
  double cap_per = 0.0; ///< gamma * x
};

std::vector<ServerClass> active_classes(const dc::Fleet& fleet,
                                        const dc::Allocation& alloc,
                                        const SlotWeights& weights) {
  std::vector<ServerClass> classes;
  classes.reserve(alloc.size());
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    if (alloc[g].active <= kTiny) continue;
    const auto& spec = fleet.group(g).spec();
    ServerClass sc;
    sc.group = g;
    sc.rate = spec.level(alloc[g].level).service_rate;
    sc.slope = weights.pue * spec.dynamic_slope(alloc[g].level);
    sc.active = alloc[g].active;
    sc.cap_per = weights.gamma * sc.rate;
    classes.push_back(sc);
  }
  return classes;
}

/// Per-server best response to workload price nu at effective energy price mu.
double server_response(const ServerClass& sc, double nu, double mu,
                       double v_beta) {
  const double threshold = mu * sc.slope + v_beta / sc.rate;
  if (nu <= threshold) return 0.0;
  const double a = sc.rate - std::sqrt(v_beta * sc.rate / (nu - mu * sc.slope));
  return std::clamp(a, 0.0, sc.cap_per);
}

/// Push loads so they sum exactly to lambda, respecting per-class caps.
/// The pre-existing mismatch is tiny (bisection tolerance), so a couple of
/// proportional passes suffice.
void settle_residual(std::vector<ServerClass>& classes,
                     std::vector<double>& loads, double lambda) {
  for (int pass = 0; pass < 4; ++pass) {
    const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
    double residual = lambda - total;
    if (std::abs(residual) <= 1e-9 * std::max(1.0, lambda)) return;
    if (residual > 0.0) {
      double headroom = 0.0;
      for (std::size_t i = 0; i < classes.size(); ++i) {
        headroom += classes[i].active * classes[i].cap_per - loads[i];
      }
      if (headroom <= kTiny) return;
      for (std::size_t i = 0; i < classes.size(); ++i) {
        const double room = classes[i].active * classes[i].cap_per - loads[i];
        loads[i] += residual * room / headroom;
      }
    } else {
      const double shrink = lambda / std::max(total, kTiny);
      for (auto& load : loads) load *= shrink;
    }
  }
}

/// Greedy fill used when the delay weight vanishes: cheapest energy first.
void greedy_fill(std::vector<ServerClass>& classes, std::vector<double>& loads,
                 double lambda, double mu) {
  std::vector<std::size_t> order(classes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return mu * classes[a].slope < mu * classes[b].slope;
  });
  double remaining = lambda;
  for (std::size_t idx : order) {
    const double cap = classes[idx].active * classes[idx].cap_per;
    const double take = std::min(cap, remaining);
    loads[idx] = take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
}

}  // namespace

double allocation_facility_kw(const dc::Fleet& fleet,
                              const dc::Allocation& alloc, double pue) {
  return pue * dc::it_power_kw(fleet, alloc);
}

double balance_loads_linear(const dc::Fleet& fleet, dc::Allocation& alloc,
                            double lambda, double mu,
                            const SlotWeights& weights) {
  for (auto& a : alloc) a.load = 0.0;
  if (lambda <= kTiny) return 0.0;

  std::vector<ServerClass> classes = active_classes(fleet, alloc, weights);
  double capacity = 0.0;
  for (const auto& sc : classes) capacity += sc.active * sc.cap_per;
  if (capacity < lambda * (1.0 - 1e-9)) return -1.0;

  std::vector<double> loads(classes.size(), 0.0);
  const double v_beta = weights.V * weights.beta;
  double nu = 0.0;
  if (v_beta <= kTiny) {
    greedy_fill(classes, loads, lambda, mu);
  } else {
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (const auto& sc : classes) {
      lo = std::min(lo, mu * sc.slope + v_beta / sc.rate);
      const double full = mu * sc.slope +
                          v_beta / (sc.rate * (1.0 - weights.gamma) *
                                    (1.0 - weights.gamma));
      hi = std::max(hi, full);
    }
    hi = hi * (1.0 + 1e-9) + kTiny;
    auto supply_gap = [&](double price) {
      double total = 0.0;
      for (const auto& sc : classes) {
        total += sc.active * server_response(sc, price, mu, v_beta);
      }
      return total - lambda;
    };
    util::BisectionOptions options;
    options.x_tol = std::max(1e-14, (hi - lo) * 1e-13);
    options.f_tol = 1e-9 * std::max(1.0, lambda);
    options.max_iterations = 200;
    const auto result = util::bisect(supply_gap, lo, hi, options);
    nu = result.x;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      loads[i] = classes[i].active * server_response(classes[i], nu, mu, v_beta);
    }
  }
  settle_residual(classes, loads, lambda);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    alloc[classes[i].group].load = loads[i];
  }
  return nu;
}

KinkClearing clear_kink(
    const SlotInput& input, const SlotWeights& weights,
    const KinkSearch& search,
    const std::function<double(double, PowerRegime)>& facility_kw_at) {
  // Grid draw: assume the optimum draws grid power (p >= r).
  const double mu_full = weights.brown_price(input.price);
  const double power_full = facility_kw_at(mu_full, PowerRegime::kGridDraw);
  if (std::isnan(power_full)) return {};
  if (power_full >= input.onsite_kw * (1.0 - 1e-9)) {
    return {true, PowerRegime::kGridDraw, mu_full};
  }

  // Renewable: electricity free below r; only the facility-power price (the
  // peak-power extension's multiplier; 0 in the base model) and the delay
  // cost remain.
  const double mu_floor = weights.power_price;
  if (facility_kw_at(mu_floor, PowerRegime::kRenewable) <=
      input.onsite_kw * (1.0 + 1e-9)) {
    return {true, PowerRegime::kRenewable, mu_floor};
  }

  // Boundary: the optimum sits at p == r; find the effective price mu in
  // (mu_floor, mu_full) whose linear solution hits the on-site supply
  // exactly, then solve there once more.
  const auto power_gap = [&](double mu) {
    return facility_kw_at(mu, PowerRegime::kBoundary) - input.onsite_kw;
  };
  util::BisectionOptions options;
  options.x_tol = std::max(1e-12, mu_full * search.x_tol);
  options.f_tol = search.f_tol * std::max(1.0, input.onsite_kw);
  options.max_iterations = search.max_iterations;
  const double mu =
      util::bisect(std::cref(power_gap), mu_floor, mu_full, options).x;
  facility_kw_at(mu, PowerRegime::kBoundary);
  return {true, PowerRegime::kBoundary, mu};
}

LoadBalanceResult balance_kinked(const dc::Fleet& fleet, dc::Allocation& alloc,
                                 const SlotInput& input,
                                 const SlotWeights& weights,
                                 const std::function<double(double)>& linear) {
  LoadBalanceResult result;
  double nu = 0.0;
  // A regime check evaluates once: a feasible outcome's facility_power_kw is
  // the bits allocation_facility_kw returns (the same table pass in the same
  // order), so one evaluation serves both the branch decision and the
  // returned outcome.  An infeasible outcome carries no power, so the check
  // computes it the explicit way, as the boundary search always does.
  const auto facility_kw_at = [&](double mu, PowerRegime candidate) {
    nu = linear(mu);
    if (nu < 0.0) return std::numeric_limits<double>::quiet_NaN();
    if (candidate != PowerRegime::kBoundary) {
      result.outcome = evaluate(fleet, alloc, input, weights);
      if (result.outcome.feasible) return result.outcome.facility_power_kw;
    }
    return allocation_facility_kw(fleet, alloc, weights.pue);
  };
  const KinkClearing clearing =
      clear_kink(input, weights, kLoadSearch, std::cref(facility_kw_at));
  if (!clearing.feasible) {
    result.outcome = evaluate(fleet, alloc, input, weights);
    result.outcome.infeasible_reason = "active capacity below lambda";
    return result;
  }
  if (clearing.regime == PowerRegime::kBoundary) {
    result.outcome = evaluate(fleet, alloc, input, weights);
  }
  result.feasible = true;
  result.regime = clearing.regime;
  result.nu = nu;
  result.effective_price = clearing.mu;
  return result;
}

LoadBalanceResult balance_loads(const dc::Fleet& fleet, dc::Allocation& alloc,
                                const SlotInput& input,
                                const SlotWeights& weights) {
  const auto linear = [&](double mu) {
    return balance_loads_linear(fleet, alloc, input.lambda, mu, weights);
  };
  return balance_kinked(fleet, alloc, input, weights, std::cref(linear));
}

}  // namespace coca::opt

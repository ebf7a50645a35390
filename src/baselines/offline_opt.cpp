#include "baselines/offline_opt.hpp"

#include <cmath>
#include <stdexcept>

namespace coca::baselines {
namespace {

/// One relaxed pass: solve every slot at a fixed multiplier.
OfflineSchedule solve_with_multiplier(const dc::Fleet& fleet,
                                      std::span<const double> lambda,
                                      std::span<const double> onsite_kw,
                                      std::span<const double> price,
                                      const opt::SlotWeights& weights,
                                      double multiplier) {
  if (lambda.size() != onsite_kw.size() || lambda.size() != price.size()) {
    throw std::invalid_argument("solve_with_multiplier: span size mismatch");
  }
  const opt::LadderSolver solver;
  opt::SlotWeights w = weights;
  w.V = 1.0;
  w.q = multiplier;

  OfflineSchedule schedule;
  schedule.multiplier = multiplier;
  schedule.outcomes.reserve(lambda.size());
  for (std::size_t t = 0; t < lambda.size(); ++t) {
    const opt::SlotInput input{lambda[t], onsite_kw[t], price[t]};
    const auto solution = solver.solve(fleet, input, w);
    // Lift the solver's raw-double outcome into the dimensioned tallies.
    schedule.total_cost += units::usd(solution.outcome.total_cost);
    schedule.total_brown_kwh += units::kwh(solution.outcome.brown_kwh);
    schedule.outcomes.push_back(solution.outcome);
  }
  return schedule;
}

}  // namespace

OfflineSchedule solve_offline_opt(const dc::Fleet& fleet,
                                  std::span<const double> lambda,
                                  std::span<const double> onsite_kw,
                                  std::span<const double> price,
                                  const opt::SlotWeights& weights,
                                  double allowance_kwh,
                                  const OfflineOptConfig& config) {
  // The allowance enters the typed layer once; every comparison below is
  // kWh-vs-kWh by type.
  const units::KiloWattHours allowance = units::kwh(allowance_kwh);

  // mu = 0: the unconstrained cost minimizer.  If it meets the budget,
  // complementary slackness says it is optimal.
  OfflineSchedule best = solve_with_multiplier(fleet, lambda, onsite_kw, price,
                                               weights, 0.0);
  if (best.total_brown_kwh <= allowance * (1.0 + 1e-9)) {
    best.budget_met = true;
    return best;
  }

  // Bracket: grow mu until the budget is met.
  double avg_price = 0.0;
  for (double p : price) avg_price += p;
  avg_price /= static_cast<double>(std::max<std::size_t>(1, price.size()));
  double hi = std::max(1e-3, avg_price);
  OfflineSchedule at_hi;
  int runs = 0;
  for (;;) {
    at_hi = solve_with_multiplier(fleet, lambda, onsite_kw, price, weights, hi);
    ++runs;
    if (at_hi.total_brown_kwh <= allowance || hi > 1e12 ||
        runs >= config.max_bisection_runs) {
      break;
    }
    hi *= 4.0;
  }
  if (at_hi.total_brown_kwh > allowance) {
    // Even an enormous energy price cannot meet the allowance (the workload
    // physically requires more brown energy): return the frugal schedule.
    at_hi.budget_met = false;
    return at_hi;
  }

  // Bisection: usage is nonincreasing in mu; keep the cheapest schedule that
  // meets the allowance.
  double lo = 0.0;
  OfflineSchedule best_feasible = at_hi;
  while (runs < config.max_bisection_runs) {
    const double mid = 0.5 * (lo + hi);
    OfflineSchedule at_mid =
        solve_with_multiplier(fleet, lambda, onsite_kw, price, weights, mid);
    ++runs;
    if (at_mid.total_brown_kwh <= allowance) {
      best_feasible = at_mid;
      hi = mid;
      if (at_mid.total_brown_kwh >=
          allowance * (1.0 - config.usage_rel_tol)) {
        break;  // within tolerance of exhausting the budget
      }
    } else {
      lo = mid;
    }
  }
  best_feasible.budget_met = true;
  return best_feasible;
}

}  // namespace coca::baselines

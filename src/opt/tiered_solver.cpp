#include "opt/tiered_solver.hpp"

#include <cmath>
#include <limits>

namespace coca::opt {
namespace {

/// Re-score a solved allocation under the tariff: replace the linear
/// electricity cost with the tariff bill and rebuild cost/objective.
SlotOutcome rescore(const SlotOutcome& outcome, const SlotWeights& weights,
                    const energy::TieredTariff& tariff) {
  SlotOutcome scored = outcome;
  scored.electricity_cost = tariff.cost(outcome.brown_kwh);
  scored.total_cost = scored.electricity_cost + scored.delay_cost;
  scored.objective =
      weights.V * scored.total_cost + weights.q * scored.brown_kwh;
  return scored;
}

}  // namespace

TieredSlotResult solve_tiered_slot(const dc::Fleet& fleet,
                                   const SlotInput& input,
                                   const SlotWeights& weights,
                                   const energy::TieredTariff& tariff) {
  const LadderSolver solver;
  const CappedSlotSolver capped;

  TieredSlotResult best;
  best.solution.outcome.objective = std::numeric_limits<double>::infinity();
  auto consider = [&](SlotSolution candidate, std::size_t tier, bool boundary) {
    if (!candidate.feasible) return;
    candidate.outcome = rescore(candidate.outcome, weights, tariff);
    if (candidate.outcome.objective < best.solution.outcome.objective) {
      best.solution = std::move(candidate);
      best.tariff_cost = best.solution.outcome.electricity_cost;
      best.active_tier = tier;
      best.boundary = boundary;
    }
  };

  // (a) Interior candidates: solve at each tier's marginal price.  A
  // candidate whose usage lands outside that tier is still scored with the
  // true tariff (it is a feasible decision), so the search never loses to it.
  for (std::size_t k = 0; k < tariff.tier_count(); ++k) {
    SlotInput tier_input = input;
    tier_input.price = tariff.tier(k).price;
    consider(solver.solve(fleet, tier_input, weights), k, false);
  }

  // (b) Boundary candidates: pin usage to each finite tier threshold via the
  // brown-energy cap (using the tier-above price for the inner solve; the
  // rescoring applies the exact tariff anyway).
  for (std::size_t k = 0; k + 1 < tariff.tier_count(); ++k) {
    SlotInput boundary_input = input;
    boundary_input.price = tariff.tier(k + 1).price;
    const auto pinned = capped.solve(fleet, boundary_input, weights,
                                     tariff.tier(k).upto_kwh);
    if (pinned.cap_dropped) continue;
    consider(pinned.solution, k, true);
  }

  return best;
}

}  // namespace coca::opt

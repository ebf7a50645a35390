#pragma once
// Per-slot P3 under a nonlinear (increasing-block) electricity tariff —
// the extension Sec. 2.1 claims the analysis supports.
//
// With a piecewise-linear convex tariff c(y), the slot objective
//     V*( c(y) + beta*d ) + q*y
// is convex in the decision through y, and its minimizer either (a) lies in
// the interior of some tier k — where it coincides with the *linear-price*
// optimum at that tier's marginal price w_k — or (b) sits exactly at a tier
// boundary.  Both candidate families reuse the existing machinery: the
// ladder solver per tier price, and the brown-energy-capped solver per
// boundary; the cheapest consistent candidate is exact for the relaxed
// problem.
//
// Note the deficit queue q and the whole of Algorithm 1 are untouched: only
// the per-slot engine changes, exactly as the paper asserts.

#include "energy/tariff.hpp"
#include "opt/capped_slot_solver.hpp"

namespace coca::opt {

struct TieredSlotResult {
  SlotSolution solution;
  double tariff_cost = 0.0;    ///< electricity bill under the tariff ($)
  std::size_t active_tier = 0; ///< tier containing the optimal usage
  bool boundary = false;       ///< optimum pinned at a tier boundary
};

/// Minimize V*(tariff(y) + beta*d*h) + q*y over capacity provisioning and
/// load distribution.  `input.price` is ignored — the tariff replaces it.
/// The returned SlotOutcome carries the tariff-correct electricity cost and
/// objective.
TieredSlotResult solve_tiered_slot(const dc::Fleet& fleet,
                                   const SlotInput& input,
                                   const SlotWeights& weights,
                                   const energy::TieredTariff& tariff);

}  // namespace coca::opt

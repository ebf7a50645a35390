#pragma once
// The T-step lookahead family (P2, Sec. 3.2): the offline benchmark COCA's
// Theorem 2 compares against.
//
// The budgeting period is divided into R frames of T slots; within frame r
// an oracle with perfect frame information minimizes the frame-average cost
// subject to the frame's own neutrality constraint (15) with budget
// alpha * (sum of f over the frame + Z/R).  Each frame is solved with the
// same Lagrangian-dual machinery as the year-long OPT.  Outputs the per-frame
// optima G_r^*, whose average (1/R) * sum_r G_r^* is Theorem 2's benchmark.

#include "baselines/offline_opt.hpp"
#include "energy/budget.hpp"

namespace coca::baselines {

struct LookaheadResult {
  std::size_t frame_length = 0;           ///< T
  std::vector<double> frame_costs;        ///< G_r^* (average cost per slot)
  std::vector<double> frame_brown_kwh;    ///< frame brown energy
  std::vector<bool> frame_budget_met;
  units::Usd total_cost;
  units::KiloWattHours total_brown_kwh;
};

/// Solve P2 for every frame.  Span sizes must be equal and a multiple of
/// nothing in particular — a ragged final frame is allowed and handled.
LookaheadResult solve_lookahead(const dc::Fleet& fleet,
                                std::span<const double> lambda,
                                std::span<const double> onsite_kw,
                                std::span<const double> price,
                                const energy::CarbonBudget& budget,
                                const opt::SlotWeights& weights,
                                std::size_t frame_length,
                                const OfflineOptConfig& config = {});

}  // namespace coca::baselines

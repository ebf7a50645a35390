#pragma once
// Budget-capped single-slot solver: minimize the slot cost g(t) subject to a
// cap on the slot's brown energy y(t) <= cap.
//
// Used by the PerfectHP baseline (hourly carbon budgets, Sec. 5.2.2) and the
// offline benchmarks.  Solved by Lagrangian relaxation: the cap's multiplier
// plays exactly the role of COCA's queue length q, so each evaluation reuses
// the ladder solver with weights (V=V, q=mu); a scalar bisection finds the
// smallest multiplier meeting the cap (complementary slackness).  When even
// the most power-frugal feasible decision exceeds the cap, the cap is
// dropped — the paper's PerfectHP does the same ("if no feasible solution
// exists ... minimize the cost without considering the hourly carbon
// budget").

#include "opt/ladder_solver.hpp"

namespace coca::opt {

struct CappedSlotResult {
  SlotSolution solution;
  double multiplier = 0.0;  ///< Lagrange multiplier on the energy cap
  bool cap_met = false;     ///< brown energy <= cap at the returned solution
  bool cap_dropped = false; ///< cap was infeasible and ignored
};

class CappedSlotSolver {
 public:
  /// Minimize g(t) subject to y(t) <= cap_kwh (cap in kWh of brown energy).
  CappedSlotResult solve(const dc::Fleet& fleet, const SlotInput& input,
                         const SlotWeights& weights, double cap_kwh) const;

 private:
  LadderSolver solver_;
};

/// Peak-power extension (Sec. 3.1: "additional constraints, such as peak
/// power ... can also be incorporated"): minimize the P3 objective subject
/// to a cap on *facility power* (kW), e.g. a provisioned-power or breaker
/// limit.  Solved by bisecting the facility-power price (SlotWeights::
/// power_price), which is exactly the cap's Lagrange multiplier.
struct PowerCapResult {
  SlotSolution solution;
  double multiplier = 0.0;   ///< $/kWh on facility energy at the optimum
  bool cap_met = false;
  bool cap_dropped = false;  ///< cap below the minimum power serving lambda
};

PowerCapResult solve_power_capped(const dc::Fleet& fleet,
                                  const SlotInput& input,
                                  const SlotWeights& weights,
                                  double max_facility_kw);

}  // namespace coca::opt

#pragma once
// Fast near-exact solver for the per-slot problem P3 (capacity provisioning
// + load distribution), based on the continuous-server-count relaxation.
//
// For a group at speed level k facing effective brown-energy price mu, the
// jointly optimal per-server operating load has the closed form
//     a*(k) = clamp( s_k * theta/(1+theta), gamma*s_k ),
//     theta = sqrt( mu * pue * p_s / (V*beta) ),
// at which the group serves workload at a *constant* marginal cost per unit
// until its server count saturates.  Parameterizing every group's best
// response by a common workload price nu turns provisioning into a scalar
// market-clearing problem: a bisection on nu activates groups in merit order
// and sizes the marginal group.  A group's best response depends only on its
// level tables, so the clearing evaluates it once per server type (groups
// with bitwise-equal tables) and shares it across the type's groups.  The
// renewable kink is handled by an outer
// bisection on mu exactly as in the load balancer.  With ~1000 servers per
// group the integrality gap of the relaxation is negligible; an optional
// local-search polish tightens the remaining slack.
//
// The ladder solver is the default per-slot engine for year-long simulations;
// GSD (the paper's distributed sampler) and the exhaustive solver validate it.

#include "opt/load_balancer.hpp"
#include "opt/slot_problem.hpp"

namespace coca::opt {

struct LadderConfig {
  /// Local-search passes over (group, level, count-step) moves; 0 disables.
  int polish_passes = 0;
  /// Count step for polish moves, as a fraction of the group size.
  double polish_count_step = 0.05;
};

struct SlotSolution {
  dc::Allocation alloc;
  SlotOutcome outcome;
  PowerRegime regime = PowerRegime::kGridDraw;
  double effective_price = 0.0;  ///< mu at the solution
  bool feasible = false;
};

class LadderSolver {
 public:
  explicit LadderSolver(LadderConfig config = {}) : config_(config) {}

  /// Solve P3 for one slot.  Returns an infeasible solution (objective +inf)
  /// if even the full fleet at top speed cannot serve lambda under gamma.
  /// The market clearing reads the fleet's tables and server types
  /// (dc::Fleet::tables()); loads are balanced by opt/load_lp.hpp.
  SlotSolution solve(const dc::Fleet& fleet, const SlotInput& input,
                     const SlotWeights& weights) const;

  const LadderConfig& config() const { return config_; }

 private:
  /// Provision + balance with a fixed linear energy price mu (no kink).
  SlotSolution solve_linear(const dc::Fleet& fleet, const SlotInput& input,
                            const SlotWeights& weights, double mu) const;

  /// One local-search polish pass; returns true if it improved the solution.
  /// Each (group, level, count-step) candidate other than the current point
  /// is load-balanced and adopted at once when it lowers the objective.
  bool polish(const dc::Fleet& fleet, const SlotInput& input,
              const SlotWeights& weights, SlotSolution& solution) const;

  LadderConfig config_;
};

}  // namespace coca::opt

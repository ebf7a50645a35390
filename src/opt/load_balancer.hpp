#pragma once
// Optimal load distribution for a *fixed* capacity configuration — the convex
// inner problem of P3, solved by dual decomposition exactly as the paper
// prescribes (Sec. 4.2 line 3 / Appendix A: "the optimal load distribution
// can be easily derived in a distributed manner, e.g., by dual
// decomposition").
//
// With speeds and active counts fixed, facility power is affine in the group
// loads and the delay cost is convex, so strong duality holds.  Each server's
// best response to a broadcast workload price nu has the closed form
//     a(nu) = clamp( x - sqrt(V*beta*x / (nu - mu*c)), 0, gamma*x ),
// where mu is the effective brown-energy price and c the server's dynamic
// power slope; a scalar bisection on nu clears the market (sum of loads =
// lambda).
//
// The [p - r]^+ kink is cleared by one driver, `clear_kink`, over a caller's
// linear solve (DESIGN §4.1): the full price V*w + q if the optimum draws
// grid power, the facility-power price if on-site renewables cover it,
// otherwise a bisection on mu that pins the optimum to p = r.  Its three
// callers are `balance_loads` (the reference, and the oracle for the
// table-driven `solve_load_lp` of opt/load_lp.hpp), `solve_load_lp` itself,
// and `LadderSolver::solve`.  The first two share `balance_kinked` and its
// boundary search (x_tol 1e-10*mu, f_tol 1e-6*max(1, r), 100 steps); the
// ladder brings its own (1e-6*mu, 1e-4*max(1, r), 60 steps).

#include <functional>

#include "opt/slot_problem.hpp"

namespace coca::opt {

/// Which branch of the [p - r]^+ kink the optimum landed on.
enum class PowerRegime {
  kGridDraw,   ///< p >= r: full effective price V*w + q
  kRenewable,  ///< p <= r at the delay-minimizing loads: electricity free
  kBoundary,   ///< optimum pinned at p == r
};

struct LoadBalanceResult {
  bool feasible = false;
  PowerRegime regime = PowerRegime::kGridDraw;
  double nu = 0.0;               ///< clearing workload price
  double effective_price = 0.0;  ///< mu actually used ($/kWh-weighted)
  SlotOutcome outcome;           ///< full cost breakdown at the solution
};

/// A caller's boundary search on mu: it stops when the bracket is narrower
/// than max(1e-12, x_tol * mu_full), when |p - r| <= f_tol * max(1, r), or
/// after max_iterations steps.  Each caller keeps its own constant.
struct KinkSearch {
  double x_tol = 0.0;
  double f_tol = 0.0;
  int max_iterations = 0;
};

/// Where the [p - r]^+ kink cleared.
struct KinkClearing {
  bool feasible = false;  ///< false: the linear solve found no loads
  PowerRegime regime = PowerRegime::kGridDraw;
  double mu = 0.0;  ///< effective price of the caller's last linear solve
};

/// Runs the regime sequence over the caller's linear solve
/// `facility_kw_at(mu, candidate)`: grid draw at mu = V*w + q + power_price,
/// then renewable at mu = power_price, else the bisection on mu that pins
/// p = r, followed by one last solve at the pinned mu.  The callable solves
/// at mu with no kink, keeps its solution and returns that solution's
/// facility power (kW), or NaN when there is none (active capacity below
/// lambda), which ends the sequence.  `candidate` is the regime the solve
/// answers for: kGridDraw at the full price, kRenewable at the floor price,
/// kBoundary at every point of the boundary search.  The caller's last
/// solution is always the one at the returned mu.  Pass a lambda through
/// std::cref so that no copy is made.
KinkClearing clear_kink(
    const SlotInput& input, const SlotWeights& weights,
    const KinkSearch& search,
    const std::function<double(double, PowerRegime)>& facility_kw_at);

/// The kinked load balance over a linear solve `linear(mu)`, which writes
/// the loads at price mu into `alloc` and returns the clearing price nu, or
/// a negative value when the active capacity cannot carry lambda.  Each
/// regime check evaluates its solution once, and that evaluation is the
/// returned outcome when the check holds.  Shared by `balance_loads` and
/// `solve_load_lp`, so the two agree by construction whenever their linear
/// solves do.
LoadBalanceResult balance_kinked(const dc::Fleet& fleet, dc::Allocation& alloc,
                                 const SlotInput& input,
                                 const SlotWeights& weights,
                                 const std::function<double(double)>& linear);

/// Distribute `input.lambda` optimally across the active servers of `alloc`
/// (levels and active counts are read, loads are overwritten).  Handles the
/// renewable kink.  Infeasible (capacity < lambda) results leave loads zero.
/// Oracle for `solve_load_lp`, and the exhaustive solver's load balancer.
LoadBalanceResult balance_loads(const dc::Fleet& fleet, dc::Allocation& alloc,
                                const SlotInput& input,
                                const SlotWeights& weights);

/// Linearized variant used by provisioning sweeps: charges brown energy at
/// the *given* effective price `mu` for every kWh (no kink).  Writes loads;
/// returns the clearing price nu, or a negative value if infeasible.
double balance_loads_linear(const dc::Fleet& fleet, dc::Allocation& alloc,
                            double lambda, double mu,
                            const SlotWeights& weights);

/// Facility power (kW) of an allocation under the weights' PUE.  Convenience
/// for regime checks.
double allocation_facility_kw(const dc::Fleet& fleet,
                              const dc::Allocation& alloc, double pue);

}  // namespace coca::opt

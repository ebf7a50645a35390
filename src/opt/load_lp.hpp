#pragma once
// Table-driven load-LP engine for the per-slot solvers.
//
// `balance_loads` (opt/load_balancer.hpp) is the *reference* dual
// water-filling solver: it reads every group's spec, rebuilds the active
// server classes, re-derives the nu bracket and re-runs the whole bisection
// on every call.  GSD's Gibbs sweep, the ladder solver and the simulator's
// actual-load rebalance solve the same fleet over and over, so these solves
// instead read:
//   * the fleet's per-(group, level) tables (dc::Fleet::tables(), built once
//     per fleet and shared by its degraded copies), scaled by the weights'
//     pue and gamma where used;
//   * SoA (structure-of-arrays) lanes for the active classes, a private
//     thread-local scratch rebuilt at the start of every solve, in two sets:
//     per-group lanes (group, entry index, active count) and per-entry
//     lanes, one entry for each distinct (server type, level) among the
//     active groups (rate, pue-scaled slope, gamma cap, bracket denominator
//     and the per-linear-solve invariants and response, plus the in-order
//     sum of its groups' active counts).  The clamp/sqrt best response
//     evaluates once per entry, element-wise over contiguous arrays, and
//     vectorizes;
//   * a certified market clearing: each interior step of the nu bisection
//     reads the supply regrouped into one term per entry, and falls back to
//     the reference's in-order sum over the groups only when the regrouped
//     gap lies within the proven rounding margin (`clearing_margin`) of
//     the step's decision, so every step decides as the reference does.
// The [p - r]^+ kink is the reference's own code: `solve_load_lp` hands its
// linear solve to `balance_kinked` (opt/load_balancer.hpp), the wrapper over
// the one kink driver that `balance_loads` uses too, so the regime order,
// the boundary search and the scoring (`evaluate`, once per regime check,
// and `allocation_facility_kw`, one pass over the fleet tables each) are
// shared by construction.
//
// Every result is bit-for-bit identical to the reference `balance_loads`:
// the canonical bracket, tolerances and iteration order of the linear solve
// are preserved; only the memory layout, the hoisted invariants (identical
// expressions, evaluated once per linear solve), the shared per-entry
// responses (groups of a type read bitwise-equal tables) and the certified
// bisection steps (the reference's branch at every step) differ.  A solve
// depends only on its arguments, never on earlier solves.  An allocation
// with an active group outside the fleet or a level outside its group's
// ladder is handed to the reference, which throws its own error.
//
// Every kinked solve is wrapped in one `load_lp` span, so span counts are a
// pure function of the solve sequence, preserving the repo-wide determinism
// contract.  Each solve adds to the installed registry's counters
// `load_lp.entries` (entries priced), `load_lp.gap_evaluations` (bisection
// evaluations of the market-clearing gap) and `load_lp.exact_sums` (those
// that summed over the groups in order).

#include <cstddef>

#include "opt/load_balancer.hpp"
#include "opt/slot_problem.hpp"

namespace coca::opt {

/// Drop-in for `balance_loads`: reads levels/active counts of `alloc`,
/// overwrites loads, handles the renewable kink.  The result is
/// bit-identical to the reference.
LoadBalanceResult solve_load_lp(const dc::Fleet& fleet, dc::Allocation& alloc,
                                const SlotInput& input,
                                const SlotWeights& weights);

/// Drop-in for `balance_loads_linear` (fixed effective price mu, no kink),
/// bit-identical to the reference.
double solve_load_lp_linear(const dc::Fleet& fleet, dc::Allocation& alloc,
                            double lambda, double mu,
                            const SlotWeights& weights);

/// Rounding margin of the certified market clearing (DESIGN §4.6).  With
/// `terms` = n + m for n non-negative supply terms over m entries, the
/// in-order group sum T and the regrouped sum U (`grouped_supply`) differ by
/// at most 2*g/(1 - g)*U, g = k*u/(1 - k*u), k = n + m, u = 2^-53.  The
/// margin is 4*(k + 2)*u*(U + |lambda| + f_tol), at least twice that, so
/// |fl(U - lambda)| > f_tol + margin proves that fl(T - lambda) has the same
/// sign and lies beyond +-f_tol too.  Infinite past 2^26 terms.
double clearing_margin(std::size_t terms, double grouped_supply,
                       double lambda, double f_tol);

}  // namespace coca::opt

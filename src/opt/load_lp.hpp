#pragma once
// Table-driven load-LP engine for the per-slot solvers.
//
// `balance_loads` (opt/load_balancer.hpp) is the *reference* dual
// water-filling solver: it reads every group's spec, rebuilds the active
// server classes, re-derives the nu bracket and re-runs the whole bisection
// on every call.  GSD's Gibbs sweep, the ladder solver and the simulator's
// actual-load rebalance solve the same fleet over and over, so
// LoadLpContext keeps, per fleet:
//   * the fleet's per-(group, level) terms (service rate, facility dynamic
//     slope, gamma cap, bracket denominators), fetched once and refreshed
//     only when the weights' pue/gamma change;
//   * the fleet's server types — groups whose level tables are bitwise
//     equal — so the ladder's market clearing evaluates one best response
//     per type instead of per group (tables() exposes both to the ladder);
//   * SoA (structure-of-arrays) lanes for the active classes, rebuilt from
//     the tables at the start of every solve, so the clamp/sqrt best
//     response evaluates element-wise over contiguous arrays and vectorizes;
//   * table-driven replicas of `evaluate` / `allocation_facility_kw`
//     (outcome_at, facility_kw_at) for the regime checks and the returned
//     outcome.
//
// Every result is bit-for-bit identical to the reference `balance_loads`:
// the canonical bracket, tolerances, regime order and iteration order are
// preserved; only the memory layout and the hoisted invariants (identical
// expressions, evaluated once per linear solve) differ.  A solve depends
// only on its arguments, never on earlier solves through the same context.
//
// Every solve() is wrapped in one `load_lp` span, so span counts are a pure
// function of the solve sequence (contexts are per chain or per controller,
// never shared across threads), preserving the repo-wide determinism
// contract.

#include <cstdint>
#include <span>
#include <vector>

#include "opt/load_balancer.hpp"
#include "opt/slot_problem.hpp"

namespace coca::opt {

/// Deterministic counters (pure function of the solve sequence).
struct LoadLpStats {
  std::int64_t solves = 0;        ///< kinked solves (solve() calls)
  std::int64_t nu_iterations = 0; ///< total inner bisection iterations
};

/// Reusable solver state for repeated load-LP solves against one fleet.
/// Not thread-safe: use one context per chain/thread (GSD does).  The ladder
/// controllers each own one for their fleet and rebuild it in set_fleet.
class LoadLpContext {
 public:
  explicit LoadLpContext(const dc::Fleet& fleet);

  /// Read-only view of the fleet tables.  Group g's level k is entry
  /// `level_offset[g] + k` of the per-level spans.  A server type is a set
  /// of groups whose level count, per-level service rate, dynamic slope and
  /// dynamic power, and static power are bitwise equal; server counts may
  /// differ.  Types are numbered in order of first appearance, and a type's
  /// tables are those of its first group.
  struct FleetTables {
    std::span<const std::size_t> level_offset;  ///< per group, plus the end
    std::span<const double> rate;               ///< service rate s_k
    std::span<const double> facility_slope;     ///< pue * dynamic slope
    std::span<const double> facility_static;    ///< pue * static kW, per group
    std::span<const double> servers;            ///< server count, per group
    std::span<const std::size_t> group_type;    ///< group -> server type
    std::span<const std::size_t> type_group;    ///< type -> its first group
  };
  /// The tables at `weights`' pue and gamma (refreshed when they change).
  /// The spans stay valid until the context is destroyed or reassigned.
  FleetTables tables(const SlotWeights& weights);

  /// Drop-in for `balance_loads`: reads levels/active counts of `alloc`,
  /// overwrites loads, handles the renewable kink.  The result is
  /// bit-identical to the reference.
  LoadBalanceResult solve(dc::Allocation& alloc, const SlotInput& input,
                          const SlotWeights& weights);

  /// Drop-in for `balance_loads_linear` (fixed effective price mu, no kink),
  /// bit-identical to the reference.
  double solve_linear(dc::Allocation& alloc, double lambda, double mu,
                      const SlotWeights& weights);

  const LoadLpStats& stats() const { return stats_; }

 private:
  /// Rebuild the SoA class arrays for `alloc` from the cached tables
  /// (a no-op while a solve() holds them).
  void build_classes(const dc::Allocation& alloc, const SlotWeights& weights);
  /// Re-derive the pue/gamma-dependent tables when pue or gamma change.
  void refresh_tables(const SlotWeights& weights);
  /// Table-driven replica of opt::evaluate(): identical expressions, check
  /// order and group-order summation (bit-for-bit), with the spec lookups
  /// served from the flat tables and the string/exception machinery bypassed
  /// on the happy path.  Any check failure defers to the reference so the
  /// diagnostic text (or throw) is exactly the reference's.
  SlotOutcome outcome_at(const dc::Allocation& alloc, const SlotInput& input,
                         const SlotWeights& weights) const;
  /// Canonical linear solve over the already-built class arrays.
  double solve_linear_built(double lambda, double mu,
                            const SlotWeights& weights);
  void scatter_loads(dc::Allocation& alloc) const;
  /// In-order active*cap sum over the built classes (cached per build).
  double built_capacity();
  double supply_gap(double nu, double lambda);
  void settle_residual(double lambda);
  void greedy_fill(double lambda, double mu);
  /// Reference-order kinked solve (regimes A -> B -> boundary) over the
  /// built class arrays; identical decision sequence to `balance_loads`.
  LoadBalanceResult solve_kinked(dc::Allocation& alloc, const SlotInput& input,
                                 const SlotWeights& weights);
  /// Table-driven replica of `allocation_facility_kw` (pue * it power, same
  /// expressions and group order bit-for-bit); defers to the reference on any
  /// power-model check failure, mirroring outcome_at's fallback design.
  double facility_kw_at(const dc::Allocation& alloc,
                        const SlotWeights& weights) const;

  const dc::Fleet* fleet_;
  LoadLpStats stats_;

  // Per-(group, level) tables, flattened with group offsets.  `rate_table_`
  // and `dyn_slope_table_` come straight from the specs (built once);
  // `slope_table_` and `facility_static_table_` (pue-scaled), `cap_table_`
  // (gamma cap) and `bracket_denom_table_` refresh when pue/gamma change.
  std::vector<std::size_t> level_offset_;
  std::vector<double> rate_table_;
  std::vector<double> dyn_slope_table_;
  std::vector<double> dyn_kw_table_;     ///< dynamic_power_kw per (g, level)
  std::vector<double> static_table_;     ///< static_power_kw per group
  std::vector<double> server_count_;     ///< server count per group
  std::vector<double> slope_table_;
  std::vector<double> cap_table_;
  std::vector<double> bracket_denom_table_;
  std::vector<double> facility_static_table_;  ///< pue * static, per group
  double tables_pue_ = -1.0;
  double tables_gamma_ = -1.0;
  // Server types (weights-independent, built with the tables).
  std::vector<std::size_t> group_type_;
  std::vector<std::size_t> type_group_;

  // SoA scratch for the active classes of the current solve.  While a
  // solve() is in flight the allocation's levels/active counts are fixed, so
  // the class arrays are built once and `classes_ready_` short-circuits the
  // interior rebuilds (the boundary regime's outer bisection re-clears the
  // same classes at every mu iterate).
  bool classes_ready_ = false;
  std::vector<std::size_t> cls_group_;
  std::vector<double> cls_rate_;
  std::vector<double> cls_slope_;
  std::vector<double> cls_active_;
  std::vector<double> cls_cap_;
  std::vector<double> cls_denom_;
  // Per-linear-solve invariants (depend on mu and V*beta).
  std::vector<double> cls_ms_;   ///< mu * slope
  std::vector<double> cls_thr_;  ///< activation threshold mu*c + V*beta/x
  std::vector<double> cls_vbr_;  ///< V*beta * x
  std::vector<double> cls_hib_;  ///< per-class upper bracket bound
  std::vector<double> cls_resp_;
  std::vector<double> cls_load_;
  // Canonical (in-order) active*cap capacity of the built classes, computed
  // once per class-array generation and reused by every feasibility gate of
  // the regime sequence (identical expression, so reuse is bit-exact).
  double built_capacity_ = 0.0;
  bool capacity_ready_ = false;
  std::vector<std::size_t> order_;  ///< greedy_fill scratch
};

}  // namespace coca::opt

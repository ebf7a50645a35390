#pragma once
// Incremental load-LP engine for the per-slot sweeps.
//
// `balance_loads` (opt/load_balancer.hpp) is the *reference* dual
// water-filling solver: it rebuilds the active server classes, re-derives the
// nu bracket and re-runs the whole bisection from scratch on every call.
// GSD's Gibbs sweep calls it once per candidate even though a move flips a
// single group's speed level or active count — the span profiler shows
// `span:slot/gsd_chain/sweep_iter/load_lp` dominating slot time.
//
// LoadLpContext caches, per solver chain, everything a candidate solve can
// reuse:
//   * the fleet's per-(group, level) terms (service rate, facility dynamic
//     slope, gamma cap, bracket denominators), fetched once and refreshed
//     only when the weights' pue/gamma change;
//   * the fleet's server types — groups whose level tables are bitwise
//     equal — so the ladder's market clearing evaluates one best response
//     per type instead of per group (tables() exposes both to the ladder);
//   * SoA (structure-of-arrays) lanes for the active classes, so the
//     clamp/sqrt best response evaluates element-wise over contiguous arrays
//     and vectorizes.  A candidate that changes a few active groups patches
//     their lanes in place, and the per-class invariants mu*c, V*beta/x and
//     V*beta*x are recomputed only for the patched lanes;
//   * an exact memo of previously solved configurations, keyed by the
//     allocation and valid while (input, weights) stay the same, so
//     re-evaluating the kept configuration (GSD line 8) is a lookup, not a
//     solve.
//
// Every result is bit-for-bit identical to the reference `balance_loads`:
// the canonical bracket, tolerances, regime order and iteration order are
// preserved; only the memory layout, the hoisted invariants (identical
// expressions, evaluated once) and the exact memo differ.  GSD argmins,
// traces and goldens do not depend on whether a context is reused.
//
// Every solve is wrapped in a `load_lp_warm` or `load_lp_cold` span:
// warm = same (input, weights) as the previous solve, so the memo was
// consulted (i.e. any solve after the first of a slot), cold = first solve
// or an input/weights change, which clears the memo.  Span counts stay a
// pure function of the inputs (contexts are per chain or per controller,
// never shared across threads), preserving the repo-wide determinism
// contract.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "opt/load_balancer.hpp"
#include "opt/slot_problem.hpp"

namespace coca::opt {

/// Deterministic counters (pure function of the solve sequence).
struct LoadLpStats {
  std::int64_t solves = 0;        ///< kinked solves (solve() calls)
  /// Solves with the same (input, weights) as the previous one, so the memo
  /// was consulted.
  std::int64_t warm = 0;
  std::int64_t cold = 0;          ///< first solve, or input/weights changed
  std::int64_t memo_hits = 0;     ///< exact-duplicate configurations
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
  /// Rebuild the SoA class arrays for `alloc` from the cached tables.
  /// When the previous build's class membership still matches (the common
  /// single-group flip), the changed groups are patched in place instead of
  /// rebuilding — the patched values come from the same table expressions,
  /// so the arrays are bit-identical to a fresh build.
  void build_classes(const dc::Allocation& alloc, const SlotWeights& weights);
  /// Patch cls_* in place for groups whose (level, active) changed since the
  /// arrays were built.  Returns false (caller rebuilds) when the class set
  /// changed or the diff is too large to be worth patching.
  bool try_patch_classes(const dc::Allocation& alloc);
  /// Re-derive the pue/gamma-dependent tables when pue or gamma change;
  /// the class arrays copied the old entries, so they are dropped too.
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
  /// True when (input, weights) equal the previous solve's, i.e. the memo
  /// still describes this slot.
  bool cache_valid_for(const SlotInput& input,
                       const SlotWeights& weights) const;
  /// Memo keys cover only the allocation: the memo is consulted only while
  /// (input, weights) match the previous solve and is cleared on every cold
  /// solve, so input and weights are invariant across entries.
  void memo_clear();
  /// Returns the entry index, or -1 when the configuration is not memoised.
  /// Compares stored keys bitwise against the allocation itself, so probing
  /// needs no materialised key vector.
  std::ptrdiff_t memo_find(std::uint64_t hash,
                           const dc::Allocation& alloc) const;
  /// Inserts the solved configuration; materialises the key only here.
  void memo_store(std::uint64_t hash, const LoadBalanceResult& result,
                  const dc::Allocation& alloc);
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
  // Delta-build state: `cls_key_` is the (level, active) key the class
  // arrays currently describe (empty = arrays invalid), `cls_index_` maps
  // group -> class index (-1 when inactive), `dirty_` lists the classes
  // patched since the per-solve invariants were last refreshed.
  std::vector<double> cls_key_;
  std::vector<std::int32_t> cls_index_;
  std::vector<std::int32_t> dirty_;
  bool dirty_all_ = true;
  double inv_mu_ = std::numeric_limits<double>::quiet_NaN();
  double inv_vbeta_ = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::size_t> cls_group_;
  std::vector<double> cls_rate_;
  std::vector<double> cls_slope_;
  std::vector<double> cls_active_;
  std::vector<double> cls_cap_;
  std::vector<double> cls_denom_;
  // Per-solve invariants (depend on mu and V*beta).
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

  // (input, weights) of the previous solve: the memo's validity key.
  bool cache_valid_ = false;
  SlotInput cached_input_;
  SlotWeights cached_weights_;

  // Exact-duplicate memo (cleared on input/weights change): open-addressed
  // hash table over `memo_slots_` (entry indices, -1 = empty) so lookups
  // stay O(1) as the sweep fills the memo.  Entry storage is flat SoA —
  // keys and solved loads live in contiguous arrays at a fixed per-entry
  // stride — so probes touch two cache lines and clearing just resets
  // `memo_used_`; the steady-state sweep allocates nothing.
  std::size_t memo_used_ = 0;
  std::vector<std::uint64_t> memo_hashes_;
  std::vector<double> memo_keys_;    ///< flat, stride = 2 * groups
  std::vector<double> memo_loads_;   ///< flat, stride = groups
  std::vector<LoadBalanceResult> memo_results_;
  std::vector<std::int32_t> memo_slots_;
};

}  // namespace coca::opt

#include "opt/load_lp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "obs/span.hpp"
#include "util/solvers.hpp"

namespace coca::opt {
namespace {

constexpr double kTiny = 1e-12;  // matches load_balancer.cpp

// Positive floor for the masked-out lanes of the response kernel: selected
// lanes (nu above the activation threshold) always have nu - mu*c >
// V*beta/x >> this, so flooring never perturbs a selected value; it only
// keeps the speculative divide on unselected lanes well defined.
constexpr double kDenomFloor = std::numeric_limits<double>::min();

// The memo's value is recency-driven (GSD revisits the kept configuration
// and near-past flips), so a small pool that stays resident in L2 beats a
// large one: store/probe touch hot lines instead of missing on every row.
constexpr std::size_t kMemoCapacity = 64;
constexpr std::size_t kMemoSlots = 256;  // power of two, 4x capacity

std::uint64_t fnv1a_alloc(const dc::Allocation& alloc) {
  // Four-lane FNV-1a over the allocation's interleaved (level, active)
  // doubles — the same word stream memo entries store as their key —
  // fused so the per-solve probe needs no materialised key.
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h[4] = {1469598103934665603ull, 0x9e3779b97f4a7c15ull,
                        0xc2b2ae3d27d4eb4full, 0x165667b19e3779f9ull};
  const std::size_t groups = alloc.size();
  std::size_t g = 0;
  for (; g + 2 <= groups; g += 2) {
    const double d0 = static_cast<double>(alloc[g].level);
    const double d1 = alloc[g].active;
    const double d2 = static_cast<double>(alloc[g + 1].level);
    const double d3 = alloc[g + 1].active;
    std::uint64_t w[4];
    std::memcpy(&w[0], &d0, sizeof(double));
    std::memcpy(&w[1], &d1, sizeof(double));
    std::memcpy(&w[2], &d2, sizeof(double));
    std::memcpy(&w[3], &d3, sizeof(double));
    for (int k = 0; k < 4; ++k) h[k] = (h[k] ^ w[k]) * kPrime;
  }
  if (g < groups) {  // odd group count: the two tail words fold into lane 0
    const double d0 = static_cast<double>(alloc[g].level);
    const double d1 = alloc[g].active;
    std::uint64_t w0 = 0;
    std::uint64_t w1 = 0;
    std::memcpy(&w0, &d0, sizeof(double));
    std::memcpy(&w1, &d1, sizeof(double));
    h[0] = (h[0] ^ w0) * kPrime;
    h[0] = (h[0] ^ w1) * kPrime;
  }
  std::uint64_t hash = h[0];
  for (int k = 1; k < 4; ++k) hash = (hash ^ h[k]) * kPrime;
  return hash;
}

}  // namespace

LoadLpContext::LoadLpContext(const dc::Fleet& fleet) : fleet_(&fleet) {
  const std::size_t groups = fleet.group_count();
  level_offset_.assign(groups + 1, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    level_offset_[g + 1] = level_offset_[g] + fleet.group(g).spec().level_count();
  }
  const std::size_t slots = level_offset_[groups];
  rate_table_.assign(slots, 0.0);
  dyn_slope_table_.assign(slots, 0.0);
  dyn_kw_table_.assign(slots, 0.0);
  static_table_.assign(groups, 0.0);
  server_count_.assign(groups, 0.0);
  for (std::size_t g = 0; g < groups; ++g) {
    const auto& spec = fleet.group(g).spec();
    for (std::size_t k = 0; k < spec.level_count(); ++k) {
      rate_table_[level_offset_[g] + k] = spec.level(k).service_rate;
      dyn_slope_table_[level_offset_[g] + k] = spec.dynamic_slope(k);
      dyn_kw_table_[level_offset_[g] + k] = spec.level(k).dynamic_power_kw;
    }
    static_table_[g] = spec.static_power_kw();
    server_count_[g] = static_cast<double>(fleet.group(g).server_count());
  }
  slope_table_.assign(slots, 0.0);
  cap_table_.assign(slots, 0.0);
  bracket_denom_table_.assign(slots, 0.0);
  facility_static_table_.assign(groups, 0.0);
  // Server types: each group joins the first earlier type whose tables match
  // it bit for bit, or opens a new one.  Distinct specs differ in their
  // first rate almost always, so the scan is cheap even with no sharing.
  const auto same_bits = [](const std::vector<double>& table, std::size_t a,
                            std::size_t b, std::size_t n) {
    return std::memcmp(table.data() + a, table.data() + b,
                       n * sizeof(double)) == 0;
  };
  group_type_.assign(groups, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t levels = level_offset_[g + 1] - level_offset_[g];
    std::size_t type = 0;
    for (; type < type_group_.size(); ++type) {
      const std::size_t first = type_group_[type];
      const std::size_t a = level_offset_[first];
      const std::size_t b = level_offset_[g];
      if (level_offset_[first + 1] - a == levels &&
          same_bits(static_table_, first, g, 1) &&
          same_bits(rate_table_, a, b, levels) &&
          same_bits(dyn_slope_table_, a, b, levels) &&
          same_bits(dyn_kw_table_, a, b, levels)) {
        break;
      }
    }
    if (type == type_group_.size()) type_group_.push_back(g);
    group_type_[g] = type;
  }
  cls_group_.reserve(groups);
  for (auto* v : {&cls_rate_, &cls_slope_, &cls_active_, &cls_cap_, &cls_denom_,
                  &cls_ms_, &cls_thr_, &cls_vbr_, &cls_resp_, &cls_load_}) {
    v->reserve(groups);
  }
  memo_slots_.assign(kMemoSlots, -1);
}

void LoadLpContext::refresh_tables(const SlotWeights& weights) {
  if (weights.pue == tables_pue_ && weights.gamma == tables_gamma_) return;
  const double one_minus_gamma = 1.0 - weights.gamma;
  for (std::size_t i = 0; i < rate_table_.size(); ++i) {
    // Identical expressions to active_classes()/the reference bracket, so
    // the cached values are bit-identical to what the reference recomputes.
    slope_table_[i] = weights.pue * dyn_slope_table_[i];
    cap_table_[i] = weights.gamma * rate_table_[i];
    bracket_denom_table_[i] = rate_table_[i] * one_minus_gamma * one_minus_gamma;
  }
  for (std::size_t g = 0; g < static_table_.size(); ++g) {
    facility_static_table_[g] = weights.pue * static_table_[g];
  }
  tables_pue_ = weights.pue;
  tables_gamma_ = weights.gamma;
  cls_key_.clear();  // the class lanes hold old entries: rebuild, never patch
}

LoadLpContext::FleetTables LoadLpContext::tables(const SlotWeights& weights) {
  refresh_tables(weights);
  return {level_offset_, rate_table_,   slope_table_, facility_static_table_,
          server_count_, group_type_, type_group_};
}

bool LoadLpContext::try_patch_classes(const dc::Allocation& alloc) {
  const std::size_t groups = alloc.size();
  if (cls_key_.size() != 2 * groups) return false;
  int patched = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const double lv = static_cast<double>(alloc[g].level);
    const double ac = alloc[g].active;
    if (cls_key_[2 * g] == lv && cls_key_[2 * g + 1] == ac) continue;
    // A group joining or leaving the active set rebuilds: the lanes hold
    // active classes only (the bisection pays ~33 gap evaluations per solve,
    // so a shorter lane array beats patchability).  Large diffs: rebuilding
    // is cheaper.
    const bool was_in = cls_key_[2 * g + 1] > kTiny;
    const bool now_in = ac > kTiny;
    if (was_in != now_in) return false;
    if (now_in) {
      if (++patched > 8) return false;
      const std::int32_t i = cls_index_[g];
      const std::size_t slot = level_offset_[g] + alloc[g].level;
      // Same expressions as the full build: the patched lane is
      // bit-identical to what a rebuild would write.
      cls_rate_[i] = rate_table_[slot];
      cls_slope_[i] = slope_table_[slot];
      cls_active_[i] = ac;
      cls_cap_[i] = cap_table_[slot];
      cls_denom_[i] = bracket_denom_table_[slot];
      capacity_ready_ = false;
      if (!dirty_all_) dirty_.push_back(i);
    }
    cls_key_[2 * g] = lv;
    cls_key_[2 * g + 1] = ac;
  }
  return true;
}

void LoadLpContext::build_classes(const dc::Allocation& alloc,
                                  const SlotWeights& weights) {
  if (classes_ready_) return;  // same alloc/weights for the whole solve()
  refresh_tables(weights);
  if (try_patch_classes(alloc)) return;
  cls_key_.clear();
  dirty_.clear();
  dirty_all_ = true;
  capacity_ready_ = false;
  cls_group_.clear();
  cls_rate_.clear();
  cls_slope_.clear();
  cls_active_.clear();
  cls_cap_.clear();
  cls_denom_.clear();
  cls_index_.assign(alloc.size(), -1);
  cls_key_.resize(2 * alloc.size());
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    cls_key_[2 * g] = static_cast<double>(alloc[g].level);
    cls_key_[2 * g + 1] = alloc[g].active;
    if (alloc[g].active <= kTiny) continue;
    cls_index_[g] = static_cast<std::int32_t>(cls_group_.size());
    cls_group_.push_back(g);
    const std::size_t slot = level_offset_[g] + alloc[g].level;
    cls_rate_.push_back(rate_table_[slot]);
    cls_slope_.push_back(slope_table_[slot]);
    cls_active_.push_back(alloc[g].active);
    cls_cap_.push_back(cap_table_[slot]);
    cls_denom_.push_back(bracket_denom_table_[slot]);
  }
  const std::size_t n = cls_group_.size();
  cls_ms_.resize(n);
  cls_thr_.resize(n);
  cls_vbr_.resize(n);
  cls_hib_.resize(n);
  cls_resp_.resize(n);
  cls_load_.resize(n);
}

double LoadLpContext::built_capacity() {
  if (!capacity_ready_) {
    // The reference's in-order reduction: reused verbatim by every consumer
    // so the feasibility predicate sees one set of bits.
    double capacity = 0.0;
    for (std::size_t i = 0; i < cls_group_.size(); ++i) {
      capacity += cls_active_[i] * cls_cap_[i];
    }
    built_capacity_ = capacity;
    capacity_ready_ = true;
  }
  return built_capacity_;
}

double LoadLpContext::supply_gap(double nu, double lambda) {
  const std::size_t n = cls_group_.size();
  const double* ms = cls_ms_.data();
  const double* thr = cls_thr_.data();
  const double* vbr = cls_vbr_.data();
  const double* rate = cls_rate_.data();
  const double* cap = cls_cap_.data();
  double* resp = cls_resp_.data();
  // Element-wise best response a(nu) = clamp(x - sqrt(V*beta*x/(nu - mu*c)),
  // 0, gamma*x) over contiguous arrays: no branches in the loop body, so the
  // divide/sqrt vectorize; the select reproduces the reference's threshold
  // branch bit-for-bit (unselected lanes are exactly 0).
  for (std::size_t i = 0; i < n; ++i) {
    const double denom = std::max(nu - ms[i], kDenomFloor);
    double a = rate[i] - std::sqrt(vbr[i] / denom);
    a = std::min(std::max(a, 0.0), cap[i]);
    resp[i] = nu > thr[i] ? a : 0.0;
  }
  // The market-clearing sum stays a scalar in-order reduction: FP addition
  // is not associative and the reference accumulates in class order.
  double total = 0.0;
  const double* active = cls_active_.data();
  for (std::size_t i = 0; i < n; ++i) total += active[i] * resp[i];
  return total - lambda;
}

void LoadLpContext::settle_residual(double lambda) {
  // Mirrors the reference settle_residual pass-for-pass.
  const std::size_t n = cls_group_.size();
  for (int pass = 0; pass < 4; ++pass) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += cls_load_[i];
    const double residual = lambda - total;
    if (std::abs(residual) <= 1e-9 * std::max(1.0, lambda)) return;
    if (residual > 0.0) {
      double headroom = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        headroom += cls_active_[i] * cls_cap_[i] - cls_load_[i];
      }
      if (headroom <= kTiny) return;
      for (std::size_t i = 0; i < n; ++i) {
        const double room = cls_active_[i] * cls_cap_[i] - cls_load_[i];
        cls_load_[i] += residual * room / headroom;
      }
    } else {
      const double shrink = lambda / std::max(total, kTiny);
      for (std::size_t i = 0; i < n; ++i) cls_load_[i] *= shrink;
    }
  }
}

void LoadLpContext::greedy_fill(double lambda, double mu) {
  // The lanes are the reference's class list element-for-element, so the
  // (unstable) sort produces the identical permutation and fill order.
  order_.resize(cls_group_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return mu * cls_slope_[a] < mu * cls_slope_[b];
  });
  double remaining = lambda;
  for (std::size_t idx : order_) {
    const double cap = cls_active_[idx] * cls_cap_[idx];
    const double take = std::min(cap, remaining);
    cls_load_[idx] = take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
}

void LoadLpContext::scatter_loads(dc::Allocation& alloc) const {
  for (std::size_t i = 0; i < cls_group_.size(); ++i) {
    alloc[cls_group_[i]].load = cls_load_[i];
  }
}

double LoadLpContext::solve_linear_built(double lambda, double mu,
                                         const SlotWeights& weights) {
  const std::size_t n = cls_group_.size();
  if (built_capacity() < lambda * (1.0 - 1e-9)) return -1.0;

  for (std::size_t i = 0; i < n; ++i) cls_load_[i] = 0.0;
  const double v_beta = weights.V * weights.beta;
  double nu = 0.0;
  if (v_beta <= kTiny) {
    greedy_fill(lambda, mu);
  } else {
    // Per-solve invariants, hoisted out of the bisection.  They depend only
    // on (class tables, mu, V*beta), so after a single-group patch at an
    // unchanged price only the dirty lanes recompute; the bracket bounds are
    // then a divide-free min/max scan.  min/max are order-insensitive, so
    // the scan is bit-identical to the reference's fused loop.
    if (dirty_all_ || !(mu == inv_mu_ && v_beta == inv_vbeta_)) {
      for (std::size_t i = 0; i < n; ++i) {
        cls_ms_[i] = mu * cls_slope_[i];
        cls_thr_[i] = cls_ms_[i] + v_beta / cls_rate_[i];
        cls_vbr_[i] = v_beta * cls_rate_[i];
        cls_hib_[i] = cls_ms_[i] + v_beta / cls_denom_[i];
      }
      dirty_all_ = false;
      inv_mu_ = mu;
      inv_vbeta_ = v_beta;
    } else {
      for (const std::int32_t i : dirty_) {
        cls_ms_[i] = mu * cls_slope_[i];
        cls_thr_[i] = cls_ms_[i] + v_beta / cls_rate_[i];
        cls_vbr_[i] = v_beta * cls_rate_[i];
        cls_hib_[i] = cls_ms_[i] + v_beta / cls_denom_[i];
      }
    }
    dirty_.clear();
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      lo = std::min(lo, cls_thr_[i]);
      hi = std::max(hi, cls_hib_[i]);
    }
    hi = hi * (1.0 + 1e-9) + kTiny;
    util::BisectionOptions options;
    options.x_tol = std::max(1e-14, (hi - lo) * 1e-13);
    options.f_tol = 1e-9 * std::max(1.0, lambda);
    options.max_iterations = 200;
    auto gap = [&](double price) { return supply_gap(price, lambda); };
    const auto result = util::bisect(gap, lo, hi, options);
    stats_.nu_iterations += result.iterations;
    nu = result.x;
    // Re-evaluate the responses at the clearing price, as the reference's
    // load pass does.
    supply_gap(nu, lambda);
    for (std::size_t i = 0; i < n; ++i) {
      cls_load_[i] = cls_active_[i] * cls_resp_[i];
    }
  }
  settle_residual(lambda);
  return nu;
}

double LoadLpContext::solve_linear(dc::Allocation& alloc, double lambda,
                                   double mu, const SlotWeights& weights) {
  for (auto& a : alloc) a.load = 0.0;
  if (lambda <= kTiny) return 0.0;
  build_classes(alloc, weights);
  const double nu = solve_linear_built(lambda, mu, weights);
  if (nu < 0.0) return nu;
  scatter_loads(alloc);
  return nu;
}

SlotOutcome LoadLpContext::outcome_at(const dc::Allocation& alloc,
                                      const SlotInput& input,
                                      const SlotWeights& weights) const {
  // See the declaration comment: this mirrors opt::evaluate() check-for-
  // check and expression-for-expression over the flat tables; every early
  // exit routes through the reference so diagnostics (and throws) stay
  // exactly the reference's.
  const std::size_t groups = alloc.size();
  if (groups != fleet_->group_count() || weights.gamma <= 0.0 ||
      weights.gamma >= 1.0) {
    return evaluate(*fleet_, alloc, input, weights);
  }
  constexpr double kTol = 1e-6;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto& a = alloc[g];
    if (a.level >= level_offset_[g + 1] - level_offset_[g] ||
        a.active < 0.0 || a.active > server_count_[g] * (1.0 + 1e-9) ||
        a.load < 0.0) {
      // Includes the reference-legal tolerance slivers (e.g. active in
      // [-1e-6, 0)) where evaluate()'s own power model would throw — the
      // reference path reproduces that behavior exactly.
      return evaluate(*fleet_, alloc, input, weights);
    }
    const double rate = rate_table_[level_offset_[g] + a.level];
    const double cap = weights.gamma * rate * std::max(0.0, a.active);
    if (a.load > cap * (1.0 + 1e-6) + kTol) {
      return evaluate(*fleet_, alloc, input, weights);
    }
  }
  double served = 0.0;
  for (std::size_t g = 0; g < groups; ++g) served += alloc[g].load;
  if (std::abs(served - input.lambda) >
      1e-6 * std::max(1.0, input.lambda) + 1e-6) {
    return evaluate(*fleet_, alloc, input, weights);  // sets the reason
  }
  double it = 0.0;
  double delay_jobs = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto& a = alloc[g];
    if (a.active == 0.0) {
      if (a.load > 0.0) return evaluate(*fleet_, alloc, input, weights);
      continue;  // contributes exact 0.0 to both sums, like the reference
    }
    const std::size_t slot = level_offset_[g] + a.level;
    const double rate = rate_table_[slot];
    const double per = a.load / a.active;
    if (per > rate * (1.0 + 1e-9)) {
      return evaluate(*fleet_, alloc, input, weights);  // reference throws
    }
    // ServerGroup::power_kw / ServerSpec::power_kw, expression preserved.
    it += a.active * (static_table_[g] + dyn_kw_table_[slot] * (per / rate));
    // ServerGroup::delay_cost, expression preserved.
    if (a.load > 0.0) {
      delay_jobs += per >= rate ? std::numeric_limits<double>::infinity()
                                : a.active * per / (rate - per);
    }
  }
  SlotOutcome out;
  const double slot_h = weights.slot_hours;
  const double facility = weights.pue * it;
  const double brown = std::max(0.0, facility - input.onsite_kw) * slot_h;
  const double electricity = brown * input.price;
  out.delay_jobs = delay_jobs;
  const double delay = (weights.beta * delay_jobs) * slot_h;
  const double total = electricity + delay;
  out.it_power_kw = it;
  out.facility_power_kw = facility;
  out.brown_kwh = brown;
  out.electricity_cost = electricity;
  out.delay_cost = delay;
  out.total_cost = total;
  out.objective = weights.V * total + weights.q * brown +
                  weights.power_price * facility * slot_h;
  out.feasible = true;
  return out;
}

double LoadLpContext::facility_kw_at(const dc::Allocation& alloc,
                                     const SlotWeights& weights) const {
  // allocation_facility_kw = pue * it_power_kw; the summation below keeps
  // the reference's group order and the power model's expression shape
  // (active * (static + dyn * (per/rate))), so the product is bit-identical.
  // Any check the power model would reject (or a tolerance sliver where it
  // would throw) defers to the reference, as in outcome_at.
  const std::size_t groups = alloc.size();
  if (groups != fleet_->group_count()) {
    return allocation_facility_kw(*fleet_, alloc, weights.pue);
  }
  double it = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto& a = alloc[g];
    if (a.level >= level_offset_[g + 1] - level_offset_[g] ||
        a.active < 0.0 || a.active > server_count_[g] * (1.0 + 1e-9) ||
        a.load < 0.0) {
      return allocation_facility_kw(*fleet_, alloc, weights.pue);
    }
    if (a.active == 0.0) {
      if (a.load > 0.0) {
        return allocation_facility_kw(*fleet_, alloc, weights.pue);
      }
      continue;  // exact 0.0 contribution, like the reference
    }
    const std::size_t slot = level_offset_[g] + a.level;
    const double rate = rate_table_[slot];
    const double per = a.load / a.active;
    if (per > rate * (1.0 + 1e-9)) {
      return allocation_facility_kw(*fleet_, alloc, weights.pue);
    }
    it += a.active * (static_table_[g] + dyn_kw_table_[slot] * (per / rate));
  }
  return weights.pue * it;
}

LoadBalanceResult LoadLpContext::solve_kinked(dc::Allocation& alloc,
                                              const SlotInput& input,
                                              const SlotWeights& weights) {
  // Reference-order regime sequence: identical decisions, brackets and
  // tolerances to balance_loads().
  LoadBalanceResult result;
  const double mu_full = weights.brown_price(input.price);

  double nu = solve_linear(alloc, input.lambda, mu_full, weights);
  if (nu < 0.0) {
    result.outcome = outcome_at(alloc, input, weights);
    result.outcome.infeasible_reason = "active capacity below lambda";
    return result;
  }
  // Fused regime check: outcome_at's facility_power_kw carries the exact
  // bits facility_kw_at would produce (same expressions, same order), so one
  // pass serves both the [p - r]^+ branch decision and the returned outcome.
  // A fallback (reference-evaluated, possibly infeasible) outcome recomputes
  // the power the explicit way, preserving the reference decision sequence.
  SlotOutcome out_a = outcome_at(alloc, input, weights);
  const double power_a =
      out_a.feasible ? out_a.facility_power_kw : facility_kw_at(alloc, weights);
  if (power_a >= input.onsite_kw * (1.0 - 1e-9)) {
    result.feasible = true;
    result.regime = PowerRegime::kGridDraw;
    result.nu = nu;
    result.effective_price = mu_full;
    result.outcome = std::move(out_a);
    return result;
  }

  const double mu_floor = weights.power_price;
  nu = solve_linear(alloc, input.lambda, mu_floor, weights);
  SlotOutcome out_b = outcome_at(alloc, input, weights);
  const double power_b =
      out_b.feasible ? out_b.facility_power_kw : facility_kw_at(alloc, weights);
  if (power_b <= input.onsite_kw * (1.0 + 1e-9)) {
    result.feasible = true;
    result.regime = PowerRegime::kRenewable;
    result.nu = nu;
    result.effective_price = mu_floor;
    result.outcome = std::move(out_b);
    return result;
  }

  auto power_gap = [&](double mu) {
    solve_linear(alloc, input.lambda, mu, weights);
    return facility_kw_at(alloc, weights) - input.onsite_kw;
  };
  util::BisectionOptions options;
  options.x_tol = std::max(1e-12, mu_full * 1e-10);
  options.f_tol = 1e-6 * std::max(1.0, input.onsite_kw);
  options.max_iterations = 100;
  const auto boundary = util::bisect(power_gap, mu_floor, mu_full, options);
  nu = solve_linear(alloc, input.lambda, boundary.x, weights);
  result.feasible = true;
  result.regime = PowerRegime::kBoundary;
  result.nu = nu;
  result.effective_price = boundary.x;
  result.outcome = outcome_at(alloc, input, weights);
  return result;
}

bool LoadLpContext::cache_valid_for(const SlotInput& input,
                                    const SlotWeights& weights) const {
  return cache_valid_ && cached_input_.lambda == input.lambda &&
         cached_input_.onsite_kw == input.onsite_kw &&
         cached_input_.price == input.price && cached_weights_.V == weights.V &&
         cached_weights_.q == weights.q &&
         cached_weights_.beta == weights.beta &&
         cached_weights_.gamma == weights.gamma &&
         cached_weights_.pue == weights.pue &&
         cached_weights_.slot_hours == weights.slot_hours &&
         cached_weights_.power_price == weights.power_price;
}

void LoadLpContext::memo_clear() {
  if (memo_used_ == 0) return;
  memo_used_ = 0;  // entries stay pooled for reuse
  std::fill(memo_slots_.begin(), memo_slots_.end(), std::int32_t{-1});
}

std::ptrdiff_t LoadLpContext::memo_find(std::uint64_t hash,
                                        const dc::Allocation& alloc) const {
  const std::size_t stride = 2 * alloc.size();
  std::size_t slot = hash & (kMemoSlots - 1);
  while (true) {
    const std::int32_t idx = memo_slots_[slot];
    if (idx < 0) return -1;
    // Bitwise key compare straight against the allocation: stored keys
    // were written with the same casts, so representation equality is the
    // same predicate memcmp over a materialised key would apply.
    // All entries share one stride (the memo only ever sees one fleet).
    if (memo_hashes_[static_cast<std::size_t>(idx)] == hash) {
      const double* key = &memo_keys_[static_cast<std::size_t>(idx) * stride];
      bool same = true;
      for (std::size_t g = 0; same && g < alloc.size(); ++g) {
        const double lv = static_cast<double>(alloc[g].level);
        const double ac = alloc[g].active;
        same = std::memcmp(&key[2 * g], &lv, sizeof(double)) == 0 &&
               std::memcmp(&key[2 * g + 1], &ac, sizeof(double)) == 0;
      }
      if (same) return idx;
    }
    slot = (slot + 1) & (kMemoSlots - 1);
  }
}

void LoadLpContext::memo_store(std::uint64_t hash,
                               const LoadBalanceResult& result,
                               const dc::Allocation& alloc) {
  if (memo_used_ >= kMemoCapacity) memo_clear();
  std::size_t slot = hash & (kMemoSlots - 1);
  while (memo_slots_[slot] >= 0) slot = (slot + 1) & (kMemoSlots - 1);
  const std::size_t idx = memo_used_++;
  memo_slots_[slot] = static_cast<std::int32_t>(idx);
  const std::size_t groups = alloc.size();
  const std::size_t stride = 2 * groups;
  if (memo_hashes_.size() <= idx) {  // grow once; cleared entries reuse rows
    memo_hashes_.resize(idx + 1);
    memo_results_.resize(idx + 1);
    memo_keys_.resize((idx + 1) * stride);
    memo_loads_.resize((idx + 1) * groups);
  }
  memo_hashes_[idx] = hash;
  // Write the key straight from the allocation: interleaved (level,
  // active) doubles, the stream memo_find and fnv1a_alloc both walk.
  double* key = &memo_keys_[idx * stride];
  for (std::size_t g = 0; g < groups; ++g) {
    key[2 * g] = static_cast<double>(alloc[g].level);
    key[2 * g + 1] = alloc[g].active;
  }
  memo_results_[idx] = result;
  double* loads = &memo_loads_[idx * groups];
  for (std::size_t g = 0; g < groups; ++g) loads[g] = alloc[g].load;
}

LoadBalanceResult LoadLpContext::solve(dc::Allocation& alloc,
                                       const SlotInput& input,
                                       const SlotWeights& weights) {
  ++stats_.solves;
  const bool warm = cache_valid_for(input, weights);
  const obs::ScopedSpan span(warm ? "load_lp_warm" : "load_lp_cold");
  if (warm) {
    ++stats_.warm;
  } else {
    ++stats_.cold;
    memo_clear();
  }

  // Memo first: a hit returns the stored (bit-exact) result without even
  // rebuilding the class arrays.
  const std::uint64_t hash = fnv1a_alloc(alloc);
  if (warm) {
    const std::ptrdiff_t hit = memo_find(hash, alloc);
    if (hit >= 0) {
      ++stats_.memo_hits;
      const double* loads =
          &memo_loads_[static_cast<std::size_t>(hit) * alloc.size()];
      for (std::size_t g = 0; g < alloc.size(); ++g) {
        alloc[g].load = loads[g];
      }
      return memo_results_[static_cast<std::size_t>(hit)];
    }
  }

  // One class build covers the whole solve: the allocation's levels/active
  // counts are fixed until we return, so the interior build_classes calls
  // (including the boundary regime's per-mu re-clears) short-circuit.
  build_classes(alloc, weights);
  classes_ready_ = true;
  const LoadBalanceResult result = solve_kinked(alloc, input, weights);
  classes_ready_ = false;
  cache_valid_ = true;
  cached_input_ = input;
  cached_weights_ = weights;
  memo_store(hash, result, alloc);
  return result;
}

}  // namespace coca::opt

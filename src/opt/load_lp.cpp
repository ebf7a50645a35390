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
}

LoadLpContext::FleetTables LoadLpContext::tables(const SlotWeights& weights) {
  refresh_tables(weights);
  return {level_offset_, rate_table_,   slope_table_, facility_static_table_,
          server_count_, group_type_, type_group_};
}

void LoadLpContext::build_classes(const dc::Allocation& alloc,
                                  const SlotWeights& weights) {
  if (classes_ready_) return;  // same alloc/weights for the whole solve()
  refresh_tables(weights);
  capacity_ready_ = false;
  cls_group_.clear();
  cls_rate_.clear();
  cls_slope_.clear();
  cls_active_.clear();
  cls_cap_.clear();
  cls_denom_.clear();
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    if (alloc[g].active <= kTiny) continue;
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
    // Invariants of this linear solve, hoisted out of the bisection: they
    // depend only on (class tables, mu, V*beta).  The bracket bounds are
    // then a divide-free min/max scan; min/max are order-insensitive, so
    // the scan is bit-identical to the reference's fused loop.
    for (std::size_t i = 0; i < n; ++i) {
      cls_ms_[i] = mu * cls_slope_[i];
      cls_thr_[i] = cls_ms_[i] + v_beta / cls_rate_[i];
      cls_vbr_[i] = v_beta * cls_rate_[i];
      cls_hib_[i] = cls_ms_[i] + v_beta / cls_denom_[i];
    }
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

LoadBalanceResult LoadLpContext::solve(dc::Allocation& alloc,
                                       const SlotInput& input,
                                       const SlotWeights& weights) {
  ++stats_.solves;
  const obs::ScopedSpan span("load_lp");
  // One class build covers the whole solve: the allocation's levels/active
  // counts are fixed until we return, so the interior build_classes calls
  // (including the boundary regime's per-mu re-clears) short-circuit.
  build_classes(alloc, weights);
  classes_ready_ = true;
  const LoadBalanceResult result = solve_kinked(alloc, input, weights);
  classes_ready_ = false;
  return result;
}

}  // namespace coca::opt

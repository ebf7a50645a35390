#include "opt/slot_problem.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

namespace coca::opt {

SlotOutcome evaluate(const dc::Fleet& fleet, const dc::Allocation& alloc,
                     const SlotInput& input, const SlotWeights& weights) {
  SlotOutcome out;
  if (alloc.size() != fleet.group_count()) {
    out.infeasible_reason = "group count mismatch";
    return out;
  }
  if (!(weights.gamma > 0.0 && weights.gamma < 1.0)) {
    out.infeasible_reason = "gamma outside (0, 1)";
    return out;
  }

  // One pass over the groups.  Each group is checked against its ladder,
  // the power model's domain and the utilization cap (constraint 7), in that
  // order, so the first failing group names the reason; its served load, IT
  // power (Eq. 2) and delay jobs (Eq. 4) are summed in group order.
  const dc::FleetTables& tables = fleet.tables();
  const std::vector<double>& servers = fleet.server_counts();
  double served = 0.0;
  double it_kw = 0.0;
  double delay_jobs = 0.0;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    const dc::GroupAllocation& a = alloc[g];
    if (a.level >= dc::ladder_size(tables, g)) {
      out.infeasible_reason = "group " + std::to_string(g) + ": bad level";
      return out;
    }
    const dc::GroupTerms terms = dc::group_terms(tables, g, servers[g], a);
    if (terms.violation) {
      out.infeasible_reason =
          "group " + std::to_string(g) + ": " + terms.violation;
      return out;
    }
    const double cap =
        weights.gamma * tables.rate[tables.level_offset[g] + a.level] * a.active;
    if (a.load > cap * (1.0 + 1e-6) + 1e-6) {
      std::ostringstream msg;
      msg << "group " << g << ": load " << a.load
          << " exceeds gamma-capped capacity " << cap;
      out.infeasible_reason = msg.str();
      return out;
    }
    served += a.load;
    it_kw += terms.it_kw;
    delay_jobs += terms.delay_jobs;
  }
  // Constraint 8, written so that a NaN or infinite lambda fails it.
  if (!std::isfinite(input.lambda) ||
      !(std::abs(served - input.lambda) <=
        1e-6 * std::max(1.0, input.lambda) + 1e-6)) {
    out.infeasible_reason = "served load does not match lambda (constraint 8)";
    return out;
  }

  // Cost accounting through the typed layer (util/units.hpp): each line is a
  // dimensional identity the compiler checks — kW * h -> kWh,
  // kWh * $/kWh -> $, $/h * h -> $.
  const units::Hours slot = weights.slot_duration();
  const units::KiloWatts it{it_kw};
  const units::KiloWatts facility = weights.pue * it;
  const units::KiloWattHours brown =
      dc::brown_power(facility, input.onsite_power()) * slot;
  const units::Usd electricity = brown * input.price_per_kwh();
  out.delay_jobs = delay_jobs;
  const units::Usd delay = units::UsdPerHour{weights.beta * out.delay_jobs} * slot;
  const units::Usd total = electricity + delay;

  out.it_power_kw = it.value();
  out.facility_power_kw = facility.value();
  out.brown_kwh = brown.value();
  out.electricity_cost = electricity.value();
  out.delay_cost = delay.value();
  out.total_cost = total.value();
  // Eq. 16 mixes the Lyapunov weights V and q across units (solver math, not
  // physics) — .value() is the sanctioned boundary.
  out.objective = weights.V * total.value() + weights.q * brown.value() +
                  weights.power_price * facility.value() * slot.value();
  out.feasible = true;
  return out;
}

bool slot_feasible(const dc::Fleet& fleet, double lambda, double gamma) {
  return lambda <= gamma * fleet.max_capacity() * (1.0 + 1e-12);
}

dc::Allocation all_off(const dc::Fleet& fleet) {
  return dc::Allocation(fleet.group_count());
}

dc::Allocation all_on_max(const dc::Fleet& fleet, double lambda, double gamma) {
  dc::Allocation alloc(fleet.group_count());
  const double capacity = fleet.max_capacity();
  if (capacity <= 0.0) return alloc;  // fully failed fleet: nothing to turn on
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    const auto& group = fleet.group(g);
    alloc[g].level = group.spec().level_count() - 1;
    alloc[g].active = static_cast<double>(group.server_count());
    // Spread in proportion to capacity: uniform utilization everywhere.
    alloc[g].load = lambda * group.max_capacity() / capacity;
  }
  // Guard against rounding pushing a group over its gamma cap.
  if (lambda > gamma * capacity) {
    for (auto& a : alloc) a.load *= gamma * capacity / lambda;
  }
  return alloc;
}

dc::Allocation expanded_to_capacity(const dc::Fleet& fleet,
                                    const dc::Allocation& planned,
                                    double lambda, double gamma) {
  dc::Allocation alloc = planned;
  for (auto& a : alloc) a.load = 0.0;
  const double target = lambda * (1.0 + 1e-9);

  // Pass 1: wake more servers at the planned speeds, proportionally to the
  // shortfall (plus a whisker of slack for rounding).
  double capacity = dc::capped_capacity(fleet, alloc, gamma);
  if (capacity < target && capacity > 0.0) {
    const double factor = target / capacity * (1.0 + 1e-6);
    for (std::size_t g = 0; g < alloc.size(); ++g) {
      const double servers =
          static_cast<double>(fleet.group(g).server_count());
      if (alloc[g].active <= 0.0) continue;
      alloc[g].active = std::min(servers, std::ceil(alloc[g].active * factor));
    }
    capacity = dc::capped_capacity(fleet, alloc, gamma);
  }

  // Pass 2: groups already fully on move to their top speed.
  if (capacity < target) {
    for (std::size_t g = 0; g < alloc.size(); ++g) {
      const auto& group = fleet.group(g);
      if (alloc[g].active >=
          static_cast<double>(group.server_count()) * (1.0 - 1e-12)) {
        alloc[g].level = group.spec().level_count() - 1;
      }
    }
    capacity = dc::capped_capacity(fleet, alloc, gamma);
  }

  // Pass 3: wake sleeping groups (at top speed) until capacity suffices.
  if (capacity < target) {
    for (std::size_t g = 0; g < alloc.size() && capacity < target; ++g) {
      const auto& group = fleet.group(g);
      const double servers = static_cast<double>(group.server_count());
      if (alloc[g].active >= servers) continue;
      const std::size_t top = group.spec().level_count() - 1;
      const double per = gamma * group.spec().level(top).service_rate;
      const double have = gamma *
                          group.spec().level(alloc[g].level).service_rate *
                          alloc[g].active;
      const double need = std::min(
          servers, std::ceil((target - capacity + have) / std::max(per, 1e-12)));
      if (need > alloc[g].active || top != alloc[g].level) {
        capacity -= have;
        alloc[g].level = top;
        alloc[g].active = std::max(alloc[g].active, need);
        capacity += per * alloc[g].active;
      }
    }
  }
  return alloc;
}

dc::Allocation clamped_to_fleet(const dc::Fleet& fleet,
                                const dc::Allocation& planned) {
  dc::Allocation alloc(fleet.group_count());
  const std::size_t groups = std::min(planned.size(), fleet.group_count());
  for (std::size_t g = 0; g < groups; ++g) {
    const auto& group = fleet.group(g);
    alloc[g].level =
        std::min(planned[g].level, group.spec().level_count() - 1);
    alloc[g].active = std::min(
        planned[g].active, static_cast<double>(group.server_count()));
    alloc[g].load = 0.0;  // the caller re-balances over the clamped capacity
  }
  return alloc;
}

}  // namespace coca::opt

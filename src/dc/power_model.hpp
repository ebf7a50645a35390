#pragma once
// Fleet-level power model (Eqs. 1-3), the fleet's delay terms (Eq. 4) and
// the allocation type shared by the whole optimization stack.
//
// An Allocation is the joint capacity-provisioning + load-distribution
// decision at one time slot: for every group, the chosen speed level, the
// number of active servers (fractional during relaxed optimization, integral
// after rounding) and the total group load.  Servers within a group share
// load equally (symmetry of Eq. 4 under a common speed).

#include <cstddef>
#include <limits>
#include <vector>

#include "dc/fleet.hpp"
#include "util/units.hpp"

namespace coca::dc {

struct GroupAllocation {
  std::size_t level = 0;  ///< index into the group's ServerSpec levels
  double active = 0.0;    ///< servers switched on at that level
  double load = 0.0;      ///< total group arrival rate (req/s)
};

using Allocation = std::vector<GroupAllocation>;

/// Sum of group loads (req/s).
double total_load(const Allocation& alloc);

/// Count of active servers across groups.
double total_active_servers(const Allocation& alloc);

/// The number of levels in group g's ladder.
inline std::size_t ladder_size(const FleetTables& tables, std::size_t g) {
  return tables.level_offset[g + 1] - tables.level_offset[g];
}

/// One group's share of the slot's IT power and delay, or why the group
/// lies outside the power model's domain.
struct GroupTerms {
  double it_kw = 0.0;       ///< Eq. 1 times the active count (kW)
  double delay_jobs = 0.0;  ///< Eq. 4 summed over the active servers
  /// Non-null outside the domain (where `ServerGroup::power_kw` throws);
  /// the terms are then zero.
  const char* violation = nullptr;
};

/// Group g's terms, read from the fleet tables: the one implementation of
/// the power model's domain and of Eqs. 1 and 4 over an allocation, with
/// `servers` the group's server count.  The domain: active count in
/// [0, servers * (1 + 1e-9)], load >= 0, no load without active servers,
/// per-server load <= rate * (1 + 1e-9); NaN fails every check.  An active
/// group's level must lie in its ladder; an idle group's is not read, and
/// it contributes exact zeros.  A server loaded to its rate has an infinite
/// delay.  The per-server load is divided out once, for the rate check and
/// both terms.  `ServerGroup::power_kw` / `delay_cost` are the object-model
/// reference it equals bit for bit.  Inline, so that it inlines into its
/// callers' group loops.
inline GroupTerms group_terms(const FleetTables& tables, std::size_t g,
                              double servers, const GroupAllocation& a) {
  GroupTerms terms;
  if (a.active == 0.0) {
    if (a.load != 0.0) {
      terms.violation = a.load > 0.0 ? "load with no active servers"
                                     : "negative or NaN load";
    }
    return terms;
  }
  if (!(a.active > 0.0 && a.active <= servers * (1.0 + 1e-9))) {
    terms.violation = "active outside [0, count]";
    return terms;
  }
  if (!(a.load >= 0.0)) {
    terms.violation = "negative or NaN load";
    return terms;
  }
  const std::size_t slot = tables.level_offset[g] + a.level;
  const double rate = tables.rate[slot];
  const double per = a.load / a.active;
  if (!(per <= rate * (1.0 + 1e-9))) {
    terms.violation = "per-server load above the service rate";
    return terms;
  }
  terms.it_kw =
      a.active * (tables.static_kw[g] + tables.dynamic_kw[slot] * (per / rate));
  if (a.load > 0.0) {
    terms.delay_jobs = per >= rate ? std::numeric_limits<double>::infinity()
                                   : a.active * per / (rate - per);
  }
  return terms;
}

/// IT power of the fleet (kW), Eq. 2: the groups' `group_terms` summed in
/// group order.  Throws std::invalid_argument on a size mismatch,
/// std::out_of_range for an active group's level outside its ladder and
/// std::domain_error, naming the first such group, outside the power
/// model's domain.
double it_power_kw(const Fleet& fleet, const Allocation& alloc);

/// Eq. 3's bracket [p - r]^+ — both operands must be power.
constexpr units::KiloWatts brown_power(units::KiloWatts facility,
                                       units::KiloWatts onsite) {
  return units::positive_part(facility - onsite);
}

/// Serving capacity of an allocation under the utilization cap:
/// sum_g gamma * x_g * active_g (req/s), in group order, with x_g read from
/// the fleet tables.  Throws std::invalid_argument on a size mismatch and
/// std::out_of_range for a level outside its group's ladder.
double capped_capacity(const Fleet& fleet, const Allocation& alloc, double gamma);

}  // namespace coca::dc

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
#include <string>
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

/// One group's share of the slot's IT power and delay.
struct GroupTerms {
  double it_kw = 0.0;       ///< Eq. 1 times the active count (kW)
  double delay_jobs = 0.0;  ///< Eq. 4 summed over the active servers
};

/// Group g's terms, read from the fleet tables: the one implementation of
/// Eqs. 1 and 4 over an allocation.  `ServerGroup::power_kw` and
/// `ServerGroup::delay_cost` are the object-model reference it equals bit
/// for bit.  `a` must lie in the power model's domain, which
/// `allocation_feasible` checks; an idle group contributes exact zeros, and
/// a server loaded to its rate an infinite delay.  Inline, so that it
/// inlines into its callers' group loops.
inline GroupTerms group_terms(const FleetTables& tables, std::size_t g,
                              const GroupAllocation& a) {
  if (a.active == 0.0) return {};
  const std::size_t slot = tables.level_offset[g] + a.level;
  const double rate = tables.rate[slot];
  const double per = a.load / a.active;
  GroupTerms terms;
  terms.it_kw =
      a.active * (tables.static_kw[g] + tables.dynamic_kw[slot] * (per / rate));
  if (a.load > 0.0) {
    terms.delay_jobs = per >= rate ? std::numeric_limits<double>::infinity()
                                   : a.active * per / (rate - per);
  }
  return terms;
}

/// IT power of the fleet (kW), Eq. 2: the groups' terms summed in group
/// order.  Throws std::invalid_argument on a size mismatch,
/// std::out_of_range for an active group's level outside its ladder and
/// std::domain_error outside the power model's domain.
double it_power_kw(const Fleet& fleet, const Allocation& alloc);

/// Eq. 3's bracket [p - r]^+ — both operands must be power.
constexpr units::KiloWatts brown_power(units::KiloWatts facility,
                                       units::KiloWatts onsite) {
  return units::positive_part(facility - onsite);
}

/// Validate an allocation against the fleet, the power model's domain
/// (active count in [0, count], non-negative load, no load without active
/// servers, per-server load within the level's service rate) and the
/// utilization cap (constraints 7 and 9).  NaN fails every check.  Returns
/// true if feasible; otherwise false and, if `why` is non-null, a
/// human-readable reason naming the group.
bool allocation_feasible(const Fleet& fleet, const Allocation& alloc,
                         double gamma, std::string* why = nullptr);

/// Serving capacity of an allocation under the utilization cap:
/// sum_g gamma * x_g * active_g (req/s), in group order, with x_g read from
/// the fleet tables.  Throws std::invalid_argument on a size mismatch and
/// std::out_of_range for a level outside its group's ladder.
double capped_capacity(const Fleet& fleet, const Allocation& alloc, double gamma);

}  // namespace coca::dc

#pragma once
// Fleet-level power/electricity model (Eqs. 1-3) and the allocation type
// shared by the whole optimization stack.
//
// An Allocation is the joint capacity-provisioning + load-distribution
// decision at one time slot: for every group, the chosen speed level, the
// number of active servers (fractional during relaxed optimization, integral
// after rounding) and the total group load.  Servers within a group share
// load equally (symmetry of Eq. 4 under a common speed).

#include <cstddef>
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

/// IT power of the fleet (kW), Eq. 2.
double it_power_kw(const Fleet& fleet, const Allocation& alloc);

/// Facility power: IT power times the PUE factor (Sec. 2.1, footnote 1).
double facility_power_kw(const Fleet& fleet, const Allocation& alloc, double pue);

/// Brown power drawn from the grid: [p - r]^+ (kW), Eq. 3's bracket.
double brown_power_kw(double facility_kw, double onsite_kw);

/// Electricity cost for one slot ($): w * [p - r]^+ * slot_hours, Eq. 3.
double electricity_cost(double price_per_kwh, double facility_kw,
                        double onsite_kw, double slot_hours);

// Typed layer (see util/units.hpp): the same model with the dimensions in
// the signatures, so a kW-vs-kWh or $-vs-$/kWh mixup fails to compile.  The
// raw-double functions above remain the solver-math escape hatch.

/// Eq. 2 as power.
units::KiloWatts it_power(const Fleet& fleet, const Allocation& alloc);

/// PUE-scaled facility power.
units::KiloWatts facility_power(const Fleet& fleet, const Allocation& alloc,
                                double pue);

/// Eq. 3's bracket [p - r]^+ — both operands must be power.
constexpr units::KiloWatts brown_power(units::KiloWatts facility,
                                       units::KiloWatts onsite) {
  return units::positive_part(facility - onsite);
}

/// Eq. 3 end to end: w * [p - r]^+ * slot -> dollars.  The implementation is
/// the dimension-checked product; the raw overload delegates here.
units::Usd electricity_cost(units::UsdPerKwh price, units::KiloWatts facility,
                            units::KiloWatts onsite, units::Hours slot);

/// Validate an allocation against the fleet and the utilization cap
/// (constraints 7 and 9 plus physical bounds).  Returns true if feasible;
/// otherwise false and, if `why` is non-null, a human-readable reason.
bool allocation_feasible(const Fleet& fleet, const Allocation& alloc,
                         double gamma, std::string* why = nullptr);

/// Serving capacity of an allocation under the utilization cap:
/// sum_g gamma * x_g * active_g (req/s), in group order, with x_g read from
/// the fleet tables.  Throws std::invalid_argument on a size mismatch and
/// std::out_of_range for a level outside its group's ladder.
double capped_capacity(const Fleet& fleet, const Allocation& alloc, double gamma);

}  // namespace coca::dc

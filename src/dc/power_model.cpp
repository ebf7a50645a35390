#include "dc/power_model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

namespace coca::dc {

double total_load(const Allocation& alloc) {
  double sum = 0.0;
  for (const auto& a : alloc) sum += a.load;
  return sum;
}

double total_active_servers(const Allocation& alloc) {
  double sum = 0.0;
  for (const auto& a : alloc) sum += a.active;
  return sum;
}

double it_power_kw(const Fleet& fleet, const Allocation& alloc) {
  if (alloc.size() != fleet.group_count()) {
    throw std::invalid_argument("it_power_kw: allocation size mismatch");
  }
  double power = 0.0;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    power += fleet.group(g).power_kw(alloc[g].level, alloc[g].active,
                                     alloc[g].load);
  }
  return power;
}

double facility_power_kw(const Fleet& fleet, const Allocation& alloc,
                         double pue) {
  if (pue < 1.0) throw std::invalid_argument("facility_power_kw: PUE < 1");
  return pue * it_power_kw(fleet, alloc);
}

double brown_power_kw(double facility_kw, double onsite_kw) {
  return std::max(0.0, facility_kw - onsite_kw);
}

double electricity_cost(double price_per_kwh, double facility_kw,
                        double onsite_kw, double slot_hours) {
  return electricity_cost(units::UsdPerKwh{price_per_kwh},
                          units::KiloWatts{facility_kw},
                          units::KiloWatts{onsite_kw},
                          units::Hours{slot_hours})
      .value();  // UNITS: documented raw-double delegate
}

units::KiloWatts it_power(const Fleet& fleet, const Allocation& alloc) {
  return units::KiloWatts{it_power_kw(fleet, alloc)};
}

units::KiloWatts facility_power(const Fleet& fleet, const Allocation& alloc,
                                double pue) {
  return units::KiloWatts{facility_power_kw(fleet, alloc, pue)};
}

units::Usd electricity_cost(units::UsdPerKwh price, units::KiloWatts facility,
                            units::KiloWatts onsite, units::Hours slot) {
  if (price.value() < 0.0 || slot.value() <= 0.0) {  // UNITS: sign check
    throw std::invalid_argument("electricity_cost: bad price/slot length");
  }
  // Eq. 3: kW * h -> kWh, then kWh * $/kWh -> $ — checked by the type system.
  return brown_power(facility, onsite) * slot * price;
}

bool allocation_feasible(const Fleet& fleet, const Allocation& alloc,
                         double gamma, std::string* why) {
  auto fail = [&](const std::string& reason) {
    if (why) *why = reason;
    return false;
  };
  if (alloc.size() != fleet.group_count()) return fail("group count mismatch");
  if (gamma <= 0.0 || gamma >= 1.0) return fail("gamma outside (0, 1)");
  constexpr double kTol = 1e-6;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    const auto& a = alloc[g];
    const auto& group = fleet.group(g);
    if (a.level >= group.spec().level_count()) {
      return fail("group " + std::to_string(g) + ": bad level");
    }
    if (a.active < -kTol ||
        a.active > static_cast<double>(group.server_count()) * (1.0 + kTol)) {
      return fail("group " + std::to_string(g) + ": active outside [0, count]");
    }
    if (a.load < -kTol) {
      return fail("group " + std::to_string(g) + ": negative load");
    }
    const double rate = group.spec().level(a.level).service_rate;
    const double cap = gamma * rate * std::max(0.0, a.active);
    if (a.load > cap * (1.0 + 1e-6) + kTol) {
      std::ostringstream msg;
      msg << "group " << g << ": load " << a.load
          << " exceeds gamma-capped capacity " << cap;
      return fail(msg.str());
    }
  }
  if (why) why->clear();
  return true;
}

double capped_capacity(const Fleet& fleet, const Allocation& alloc,
                       double gamma) {
  if (alloc.size() != fleet.group_count()) {
    throw std::invalid_argument("capped_capacity: allocation size mismatch");
  }
  const FleetTables& tables = fleet.tables();
  double cap = 0.0;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    const std::size_t first = tables.level_offset[g];
    if (alloc[g].level >= tables.level_offset[g + 1] - first) {
      throw std::out_of_range("capped_capacity: group " + std::to_string(g) +
                              " level outside its ladder");
    }
    const double rate = tables.rate[first + alloc[g].level];
    cap += gamma * rate * alloc[g].active;
  }
  return cap;
}

}  // namespace coca::dc

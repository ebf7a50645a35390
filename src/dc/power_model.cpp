#include "dc/power_model.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

namespace coca::dc {
namespace {

/// The number of levels in group g's ladder.
std::size_t ladder_size(const FleetTables& tables, std::size_t g) {
  return tables.level_offset[g + 1] - tables.level_offset[g];
}

/// Why group g's allocation lies outside the power model's domain, where
/// the object model (`ServerGroup::power_kw`) throws, or nullptr inside it.
/// Each comparison is written so that NaN fails it.  An active group's
/// level must lie in its ladder.
const char* domain_violation(const Fleet& fleet, std::size_t g,
                             const GroupAllocation& a) {
  if (a.active == 0.0) {
    if (a.load == 0.0) return nullptr;
    return a.load > 0.0 ? "load with no active servers"
                        : "negative or NaN load";
  }
  if (!(a.active > 0.0 &&
        a.active <= fleet.server_counts()[g] * (1.0 + 1e-9))) {
    return "active outside [0, count]";
  }
  if (!(a.load >= 0.0)) return "negative or NaN load";
  const FleetTables& tables = fleet.tables();
  const double rate = tables.rate[tables.level_offset[g] + a.level];
  if (!(a.load / a.active <= rate * (1.0 + 1e-9))) {
    return "per-server load above the service rate";
  }
  return nullptr;
}

}  // namespace

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
  const FleetTables& tables = fleet.tables();
  double power = 0.0;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    const GroupAllocation& a = alloc[g];
    if (a.active != 0.0 && a.level >= ladder_size(tables, g)) {
      throw std::out_of_range("it_power_kw: group " + std::to_string(g) +
                              " level outside its ladder");
    }
    if (const char* why = domain_violation(fleet, g, a)) {
      throw std::domain_error("it_power_kw: group " + std::to_string(g) +
                              ": " + why);
    }
    power += group_terms(tables, g, a).it_kw;
  }
  return power;
}

bool allocation_feasible(const Fleet& fleet, const Allocation& alloc,
                         double gamma, std::string* why) {
  auto fail = [&](const std::string& reason) {
    if (why) *why = reason;
    return false;
  };
  if (alloc.size() != fleet.group_count()) return fail("group count mismatch");
  if (!(gamma > 0.0 && gamma < 1.0)) return fail("gamma outside (0, 1)");
  const FleetTables& tables = fleet.tables();
  constexpr double kTol = 1e-6;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    const auto& a = alloc[g];
    if (a.level >= ladder_size(tables, g)) {
      return fail("group " + std::to_string(g) + ": bad level");
    }
    if (const char* reason = domain_violation(fleet, g, a)) {
      return fail("group " + std::to_string(g) + ": " + reason);
    }
    const double rate = tables.rate[tables.level_offset[g] + a.level];
    const double cap = gamma * rate * a.active;
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
    if (alloc[g].level >= ladder_size(tables, g)) {
      throw std::out_of_range("capped_capacity: group " + std::to_string(g) +
                              " level outside its ladder");
    }
    const double rate = tables.rate[tables.level_offset[g] + alloc[g].level];
    cap += gamma * rate * alloc[g].active;
  }
  return cap;
}

}  // namespace coca::dc

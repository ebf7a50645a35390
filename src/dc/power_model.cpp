#include "dc/power_model.hpp"

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
  const FleetTables& tables = fleet.tables();
  const std::vector<double>& servers = fleet.server_counts();
  double power = 0.0;
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    const GroupAllocation& a = alloc[g];
    if (a.active != 0.0 && a.level >= ladder_size(tables, g)) {
      throw std::out_of_range("it_power_kw: group " + std::to_string(g) +
                              " level outside its ladder");
    }
    const GroupTerms terms = group_terms(tables, g, servers[g], a);
    if (terms.violation) {
      throw std::domain_error("it_power_kw: group " + std::to_string(g) +
                              ": " + terms.violation);
    }
    power += terms.it_kw;
  }
  return power;
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

#include "dc/fleet.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace coca::dc {
namespace {

FleetTables build_tables(const std::vector<ServerGroup>& groups) {
  FleetTables t;
  const std::size_t count = groups.size();
  t.level_offset.assign(count + 1, 0);
  for (std::size_t g = 0; g < count; ++g) {
    t.level_offset[g + 1] = t.level_offset[g] + groups[g].spec().level_count();
  }
  t.static_kw.reserve(count);
  for (const auto& group : groups) {
    const auto& spec = group.spec();
    for (std::size_t k = 0; k < spec.level_count(); ++k) {
      t.rate.push_back(spec.level(k).service_rate);
      t.dynamic_slope.push_back(spec.dynamic_slope(k));
      t.dynamic_kw.push_back(spec.level(k).dynamic_power_kw);
    }
    t.static_kw.push_back(spec.static_power_kw());
  }
  // Server types: each group joins the first earlier type whose tables match
  // it bit for bit, or opens a new one.  Distinct specs differ in their
  // first rate almost always, so the scan is cheap even with no sharing.
  const auto same_bits = [](const std::vector<double>& table, std::size_t a,
                            std::size_t b, std::size_t n) {
    return std::memcmp(table.data() + a, table.data() + b,
                       n * sizeof(double)) == 0;
  };
  t.group_type.assign(count, 0);
  for (std::size_t g = 0; g < count; ++g) {
    const std::size_t levels = t.level_offset[g + 1] - t.level_offset[g];
    std::size_t type = 0;
    for (; type < t.type_group.size(); ++type) {
      const std::size_t first = t.type_group[type];
      const std::size_t a = t.level_offset[first];
      const std::size_t b = t.level_offset[g];
      if (t.level_offset[first + 1] - a == levels &&
          same_bits(t.static_kw, first, g, 1) &&
          same_bits(t.rate, a, b, levels) &&
          same_bits(t.dynamic_slope, a, b, levels) &&
          same_bits(t.dynamic_kw, a, b, levels)) {
        break;
      }
    }
    if (type == t.type_group.size()) t.type_group.push_back(g);
    t.group_type[g] = type;
  }
  return t;
}

}  // namespace

Fleet::Fleet(std::vector<ServerGroup> groups)
    : Fleet(std::move(groups), nullptr) {}

Fleet::Fleet(std::vector<ServerGroup> groups,
             std::shared_ptr<const FleetTables> tables)
    : groups_(std::move(groups)), tables_(std::move(tables)) {
  if (groups_.empty()) throw std::invalid_argument("Fleet: no groups");
  if (tables_ == nullptr) {
    tables_ = std::make_shared<const FleetTables>(build_tables(groups_));
  }
  server_counts_.reserve(groups_.size());
  for (const auto& g : groups_) {
    server_counts_.push_back(static_cast<double>(g.server_count()));
  }
}

std::size_t Fleet::total_servers() const {
  std::size_t total = 0;
  for (const auto& g : groups_) total += g.server_count();
  return total;
}

double Fleet::max_capacity() const {
  double total = 0.0;
  for (const auto& g : groups_) total += g.max_capacity();
  return total;
}

double Fleet::peak_power_kw() const {
  double total = 0.0;
  for (const auto& g : groups_) total += g.peak_power_kw();
  return total;
}

Fleet make_default_fleet(const FleetConfig& config) {
  if (config.group_count == 0 || config.total_servers < config.group_count) {
    throw std::invalid_argument("make_default_fleet: bad sizes");
  }
  const std::size_t generations = std::max<std::size_t>(1, config.generations);
  const ServerSpec reference = ServerSpec::opteron2380();

  // One group per generation, whose spec every group of that generation
  // shares.
  std::vector<ServerGroup> generation;
  generation.reserve(generations);
  for (std::size_t j = 0; j < generations; ++j) {
    const double frac =
        generations == 1
            ? 0.0
            : static_cast<double>(j) / static_cast<double>(generations - 1);
    // Generation 0 is the newest (reference); older generations are slower
    // and draw relatively more power per unit work.
    const double speed_factor = 1.0 - config.speed_spread * frac;
    const double power_factor = 1.0 + config.power_spread * frac;
    generation.emplace_back(reference.scaled("gen-" + std::to_string(j),
                                             speed_factor, power_factor),
                            0);
  }

  const std::size_t base = config.total_servers / config.group_count;
  std::size_t remainder = config.total_servers % config.group_count;
  std::vector<ServerGroup> groups;
  groups.reserve(config.group_count);
  for (std::size_t g = 0; g < config.group_count; ++g) {
    std::size_t count = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    groups.push_back(generation[g % generations].with_server_count(count));
  }
  return Fleet(std::move(groups));
}

Fleet make_homogeneous_fleet(std::size_t groups, std::size_t servers_per_group) {
  return Fleet(std::vector<ServerGroup>(
      groups, ServerGroup(ServerSpec::opteron2380(), servers_per_group)));
}

Fleet degraded_fleet(const Fleet& fleet,
                     const std::vector<std::size_t>& failed_per_group) {
  if (failed_per_group.size() != fleet.group_count()) {
    throw std::invalid_argument("degraded_fleet: group count mismatch");
  }
  std::vector<ServerGroup> groups;
  groups.reserve(fleet.group_count());
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    const std::size_t have = fleet.group(g).server_count();
    const std::size_t failed = failed_per_group[g];
    if (failed > have) {
      throw std::invalid_argument("degraded_fleet: more failures than servers");
    }
    groups.push_back(fleet.group(g).with_server_count(have - failed));
  }
  return Fleet(std::move(groups), fleet.tables_);
}

}  // namespace coca::dc

#pragma once
// The heterogeneous data-center fleet: an ordered collection of server
// groups.  The paper's reference deployment is ~216 K servers (50 MW peak)
// spanning several purchase generations; GSD operates at the granularity of
// 200 groups.

#include <cstddef>
#include <memory>
#include <vector>

#include "dc/server_group.hpp"

namespace coca::dc {

/// The fleet's specs as flat per-(group, level) tables, with its server
/// types: what the load LP and the ladder's market clearing read.  Group g's
/// level k is entry `level_offset[g] + k` of the per-level vectors.  A server
/// type is a set of groups whose level count, per-level service rate, dynamic
/// slope and dynamic power, and static power are bitwise equal; server counts
/// may differ.  Types are numbered in order of first appearance, and a type's
/// tables are those of its first group.
struct FleetTables {
  std::vector<std::size_t> level_offset;  ///< per group, plus the end
  std::vector<double> rate;               ///< service rate s_k
  std::vector<double> dynamic_slope;      ///< p_c(s_k) / s_k
  std::vector<double> dynamic_kw;         ///< p_c(s_k)
  std::vector<double> static_kw;          ///< p_s, per group
  std::vector<std::size_t> group_type;    ///< group -> server type
  std::vector<std::size_t> type_group;    ///< type -> its first group
};

class Fleet {
 public:
  explicit Fleet(std::vector<ServerGroup> groups);

  std::size_t group_count() const { return groups_.size(); }
  const ServerGroup& group(std::size_t g) const { return groups_.at(g); }
  const std::vector<ServerGroup>& groups() const { return groups_; }

  /// Built once from the specs; degraded copies share their baseline's.
  const FleetTables& tables() const { return *tables_; }
  /// Server count per group, as a double (the solvers' view).
  const std::vector<double>& server_counts() const { return server_counts_; }

  std::size_t total_servers() const;
  /// Total service capacity at top speeds (req/s).
  double max_capacity() const;
  /// Peak IT power (kW), all servers at top speed and full load.
  double peak_power_kw() const;

 private:
  friend Fleet degraded_fleet(const Fleet& fleet,
                              const std::vector<std::size_t>& failed_per_group);
  Fleet(std::vector<ServerGroup> groups,
        std::shared_ptr<const FleetTables> tables);

  std::vector<ServerGroup> groups_;
  std::shared_ptr<const FleetTables> tables_;
  std::vector<double> server_counts_;
};

struct FleetConfig {
  std::size_t total_servers = 216'000;  ///< paper: ~216 K servers, 50 MW peak
  std::size_t group_count = 200;        ///< paper: GSD run with 200 groups
  std::size_t generations = 4;          ///< hardware heterogeneity
  /// Per-generation speed spread: generation j gets speed factor
  /// 1 - speed_spread * j / (generations - 1).
  double speed_spread = 0.18;
  /// Per-generation power spread (older servers less efficient).
  double power_spread = 0.12;
};

/// Build the default heterogeneous fleet: `group_count` groups of (nearly)
/// equal size cycling through `generations` scaled variants of the
/// Opteron 2380 reference spec.
Fleet make_default_fleet(const FleetConfig& config = {});

/// Convenience: a small homogeneous fleet for tests/examples.
Fleet make_homogeneous_fleet(std::size_t groups, std::size_t servers_per_group);

/// Failure injection (Sec. 4.2: "In the event of server failures, only
/// functioning servers need to participate ..."): a copy of the fleet with
/// `failed_per_group[g]` servers removed from group g.  Groups are preserved
/// (a fully-failed group keeps zero servers) so allocations and controllers
/// keep their dimensions and can continue mid-run.  Every spec is kept, so
/// the copy shares `fleet`'s specs and tables; only its server counts are
/// its own.  Throws if more servers fail than exist.
Fleet degraded_fleet(const Fleet& fleet,
                     const std::vector<std::size_t>& failed_per_group);

}  // namespace coca::dc

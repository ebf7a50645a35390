#pragma once
// A group of homogeneous servers managed in batch.
//
// The paper reduces GSD's complexity by "making capacity provisioning
// decisions on a group basis: changing speed selections for a whole group of
// (homogeneous) servers in batch" (Sec. 4.2).  A group therefore carries one
// ServerSpec and a server count; a provisioning decision for the group is a
// speed level plus the number of active servers, and by symmetry every active
// server in a group receives the same load.
//
// The spec is immutable and held by shared pointer, so copies of a group
// (a degraded fleet's, or another group of the same hardware) share one
// spec instead of copying its levels.

#include <cstddef>
#include <memory>

#include "dc/server_spec.hpp"

namespace coca::dc {

class ServerGroup {
 public:
  ServerGroup(ServerSpec spec, std::size_t server_count);

  const ServerSpec& spec() const { return *spec_; }
  std::size_t server_count() const { return count_; }

  /// This group's hardware with `server_count` servers; shares the spec.
  ServerGroup with_server_count(std::size_t server_count) const;

  /// Peak service capacity of the whole group (req/s, all at top speed).
  double max_capacity() const;
  /// Peak power of the whole group (kW).
  double peak_power_kw() const;

  /// Group power (kW) with `active` servers at level k, total group load
  /// `group_lambda` spread equally (Eq. 1 summed; active may be fractional
  /// during relaxed optimization).
  double power_kw(std::size_t k, double active, double group_lambda) const;

  /// Group delay cost (Eq. 4 summed): active * a/(x - a) with a the
  /// per-server load.  Requires a < x (enforced upstream via the utilization
  /// cap gamma < 1); returns +inf if a >= x to keep optimizers safe.
  double delay_cost(std::size_t k, double active, double group_lambda) const;

 private:
  std::shared_ptr<const ServerSpec> spec_;
  std::size_t count_;
};

}  // namespace coca::dc

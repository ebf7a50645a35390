#include "dc/server_group.hpp"

#include <limits>
#include <stdexcept>

namespace coca::dc {

ServerGroup::ServerGroup(ServerSpec spec, std::size_t server_count)
    : spec_(std::make_shared<const ServerSpec>(std::move(spec))),
      count_(server_count) {
  // A zero-server group is allowed: it models a group whose servers have all
  // failed (failure injection keeps group indices stable).
}

ServerGroup ServerGroup::with_server_count(std::size_t server_count) const {
  ServerGroup copy = *this;
  copy.count_ = server_count;
  return copy;
}

double ServerGroup::max_capacity() const {
  return static_cast<double>(count_) * spec_->max_rate();
}

double ServerGroup::peak_power_kw() const {
  return static_cast<double>(count_) * spec_->peak_power_kw();
}

double ServerGroup::power_kw(std::size_t k, double active,
                             double group_lambda) const {
  if (active < 0.0 || active > static_cast<double>(count_) * (1.0 + 1e-9)) {
    throw std::domain_error("ServerGroup::power_kw: active outside [0, count]");
  }
  if (group_lambda < 0.0) {
    throw std::domain_error("ServerGroup::power_kw: negative load");
  }
  if (active == 0.0) {
    if (group_lambda > 0.0) {
      throw std::domain_error("ServerGroup::power_kw: load with no active servers");
    }
    return 0.0;
  }
  const double per_server = group_lambda / active;
  return active * spec_->power_kw(k, per_server);
}

double ServerGroup::delay_cost(std::size_t k, double active,
                               double group_lambda) const {
  if (group_lambda <= 0.0) return 0.0;
  if (active <= 0.0) return std::numeric_limits<double>::infinity();
  const double rate = spec_->level(k).service_rate;
  const double per_server = group_lambda / active;
  if (per_server >= rate) return std::numeric_limits<double>::infinity();
  return active * per_server / (rate - per_server);
}

}  // namespace coca::dc

#include "dc/server_spec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace coca::dc {

ServerSpec::ServerSpec(std::string model, double static_power_kw,
                       std::vector<SpeedLevel> levels)
    : model_(std::move(model)),
      static_power_kw_(static_power_kw),
      levels_(std::move(levels)) {
  // Every check is written so that NaN fails it; ±inf fails isfinite.
  if (!(std::isfinite(static_power_kw_) && static_power_kw_ >= 0.0)) {
    throw std::invalid_argument(
        "ServerSpec: static power must be finite and >= 0");
  }
  if (levels_.empty()) {
    throw std::invalid_argument("ServerSpec: need at least one speed level");
  }
  for (const auto& lv : levels_) {
    if (!(std::isfinite(lv.service_rate) && lv.service_rate > 0.0 &&
          std::isfinite(lv.dynamic_power_kw) && lv.dynamic_power_kw >= 0.0)) {
      throw std::invalid_argument("ServerSpec: invalid level for " + model_);
    }
  }
  if (!std::is_sorted(levels_.begin(), levels_.end(),
                      [](const SpeedLevel& a, const SpeedLevel& b) {
                        return a.service_rate < b.service_rate;
                      })) {
    throw std::invalid_argument("ServerSpec: levels must ascend by service rate");
  }
}

double ServerSpec::peak_power_kw() const {
  return static_power_kw_ + levels_.back().dynamic_power_kw;
}

double ServerSpec::power_kw(std::size_t k, double lambda) const {
  const SpeedLevel& lv = levels_.at(k);
  if (lambda < 0.0 || lambda > lv.service_rate * (1.0 + 1e-9)) {
    throw std::domain_error("ServerSpec::power_kw: lambda outside [0, x]");
  }
  return static_power_kw_ + lv.dynamic_power_kw * (lambda / lv.service_rate);
}

double ServerSpec::dynamic_slope(std::size_t k) const {
  const SpeedLevel& lv = levels_.at(k);
  return lv.dynamic_power_kw / lv.service_rate;
}

ServerSpec ServerSpec::scaled(std::string model, double speed_factor,
                              double power_factor) const {
  if (!(std::isfinite(speed_factor) && speed_factor > 0.0 &&
        std::isfinite(power_factor) && power_factor > 0.0)) {
    throw std::invalid_argument(
        "ServerSpec::scaled: factors must be finite and positive");
  }
  std::vector<SpeedLevel> levels = levels_;
  for (auto& lv : levels) {
    lv.frequency_ghz *= speed_factor;
    lv.service_rate *= speed_factor;
    lv.dynamic_power_kw *= power_factor;
  }
  return ServerSpec(std::move(model), static_power_kw_ * power_factor,
                    std::move(levels));
}

ServerSpec ServerSpec::opteron2380() {
  // Powerpack measurements reported in Sec. 5.1.  Total power at full load
  // per level is 184/194/208/231 W; dynamic power is total minus the 140 W
  // idle.  10 req/s at 2.5 GHz, service rate proportional to frequency.
  const double rate_per_ghz = 10.0 / 2.5;
  return ServerSpec(
      "AMD Opteron 2380", 0.140,
      {
          {0.8, 0.8 * rate_per_ghz, 0.044},
          {1.3, 1.3 * rate_per_ghz, 0.054},
          {1.8, 1.8 * rate_per_ghz, 0.068},
          {2.5, 2.5 * rate_per_ghz, 0.091},
      });
}

}  // namespace coca::dc

#include "dc/switching.hpp"

#include <cmath>
#include <stdexcept>

namespace coca::dc {

double toggles_between(const Allocation& previous, const Allocation& next) {
  if (previous.size() != next.size()) {
    throw std::invalid_argument("toggles_between: allocation size mismatch");
  }
  double toggles = 0.0;
  for (std::size_t g = 0; g < next.size(); ++g) {
    toggles += std::abs(next[g].active - previous[g].active);
  }
  return toggles;
}

double switching_energy_kwh(const SwitchingModel& model,
                            const Allocation& previous, const Allocation& next) {
  if (!std::isfinite(model.kwh_per_toggle)) {
    throw std::invalid_argument(
        "switching_energy_kwh: non-finite per-toggle cost");
  }
  if (model.kwh_per_toggle < 0.0) {
    throw std::invalid_argument("switching_energy_kwh: negative per-toggle cost");
  }
  return model.kwh_per_toggle * toggles_between(previous, next);
}

}  // namespace coca::dc

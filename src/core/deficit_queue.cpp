#include "core/deficit_queue.hpp"

#include <cmath>
#include <stdexcept>

namespace coca::core {

units::KiloWattHours CarbonDeficitQueue::update(
    units::KiloWattHours brown, units::KiloWattHours offsite, double alpha,
    units::KiloWattHours rec_per_slot) {
  if (brown.value() < 0.0 || offsite.value() < 0.0 ||  // UNITS: sign check
      rec_per_slot.value() < 0.0) {  // UNITS: sign check on raw magnitude
    throw std::invalid_argument("CarbonDeficitQueue::update: negative input");
  }
  if (alpha <= 0.0) {
    throw std::invalid_argument("CarbonDeficitQueue::update: alpha must be > 0");
  }
  // Eq. 17: q(t+1) = [ q(t) + y(t) - alpha*(f(t) + z(t)) ]^+ — all kWh.
  // alpha multiplies *both* offsets here and nowhere else (the Eq. 10
  // budget is alpha*(F + Z)); callers pass raw kWh.
  const units::KiloWattHours next = units::positive_part(
      deficit() + brown - alpha * (offsite + rec_per_slot));
  q_ = next.value();  // UNITS: q(t) is the raw Lyapunov shadow price
  return next;
}

void CarbonDeficitQueue::restore(double q) {
  if (!std::isfinite(q) || q < 0.0) {
    throw std::invalid_argument(
        "CarbonDeficitQueue::restore: length must be finite and >= 0");
  }
  q_ = q;
}

}  // namespace coca::core

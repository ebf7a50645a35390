#include "core/deficit_queue.hpp"

#include <cmath>
#include <stdexcept>

namespace coca::core {

units::KiloWattHours CarbonDeficitQueue::update(
    units::KiloWattHours brown, units::KiloWattHours offsite, double alpha,
    units::KiloWattHours rec_per_slot) {
  // A NaN would pass a sign check and [.]^+ would turn it into q = 0,
  // silently erasing the deficit; an infinity would make q unrestorable.
  for (const units::KiloWattHours energy : {brown, offsite, rec_per_slot}) {
    const double kwh = energy.value();  // UNITS: finiteness/sign check
    if (!std::isfinite(kwh) || kwh < 0.0) {
      throw std::invalid_argument(
          "CarbonDeficitQueue::update: energies must be finite and >= 0");
    }
  }
  if (!std::isfinite(alpha) || alpha <= 0.0) {
    throw std::invalid_argument(
        "CarbonDeficitQueue::update: alpha must be finite and > 0");
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

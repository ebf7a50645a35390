#include "workload/transforms.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace coca::workload {

Trace overestimate(const Trace& trace, double phi) {
  if (phi < 1.0) {
    throw std::invalid_argument("overestimate: phi must be >= 1");
  }
  return trace.scaled(phi);
}

Trace with_prediction_error(const Trace& trace, double error, std::uint64_t seed) {
  if (error < 0.0 || error >= 1.0) {
    throw std::invalid_argument("with_prediction_error: error must be in [0, 1)");
  }
  util::Rng rng(seed);
  std::vector<double> values(trace.size());
  for (std::size_t t = 0; t < trace.size(); ++t) {
    values[t] = trace[t] * rng.uniform(1.0 - error, 1.0 + error);
  }
  return Trace(trace.name() + "/noisy", std::move(values), trace.slot_hours());
}

}  // namespace coca::workload

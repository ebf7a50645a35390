#include "sim/metrics.hpp"

#include "util/stats.hpp"

namespace coca::sim {

// The aggregate accessors are the tree's reporting boundary: sums are
// accumulated in the dimensioned types (so a kWh can never leak into a $
// total) and unwrapped exactly once, at the return.

double Metrics::total_cost() const {
  units::Usd sum;
  for (const auto& s : slots_) sum += s.total_cost + s.rec_cost;
  return sum.value();  // UNITS: reporting boundary — figures/tests read $
}

double Metrics::total_ops_cost() const {
  units::Usd sum;
  for (const auto& s : slots_) sum += s.total_cost;
  return sum.value();  // UNITS: reporting boundary — figures/tests read $
}

double Metrics::total_rec_cost() const {
  units::Usd sum;
  for (const auto& s : slots_) sum += s.rec_cost;
  return sum.value();  // UNITS: reporting boundary — figures/tests read $
}

double Metrics::total_brown_kwh() const {
  units::KiloWattHours sum;
  for (const auto& s : slots_) sum += s.brown_kwh;
  return sum.value();  // UNITS: reporting boundary — figures/tests read kWh
}

double Metrics::total_electricity_cost() const {
  units::Usd sum;
  for (const auto& s : slots_) sum += s.electricity_cost;
  return sum.value();  // UNITS: reporting boundary — figures/tests read $
}

double Metrics::total_delay_cost() const {
  units::Usd sum;
  for (const auto& s : slots_) sum += s.delay_cost;
  return sum.value();  // UNITS: reporting boundary — figures/tests read $
}

double Metrics::total_switching_kwh() const {
  units::KiloWattHours sum;
  for (const auto& s : slots_) sum += s.switching_kwh;
  return sum.value();  // UNITS: reporting boundary — figures/tests read kWh
}

double Metrics::total_shed_lambda() const {
  units::RequestsPerSec sum;
  for (const auto& s : slots_) sum += s.shed_lambda;
  return sum.value();  // UNITS: reporting boundary — figures/tests read req/s
}

double Metrics::average_cost() const {
  if (slots_.empty()) return 0.0;
  return total_cost() / static_cast<double>(slots_.size());
}

std::vector<double> Metrics::cost_series() const {
  std::vector<double> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) {
    out.push_back(s.total_cost.value());  // UNITS: plotting series ($/slot)
  }
  return out;
}

std::vector<double> Metrics::brown_series() const {
  std::vector<double> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) {
    out.push_back(s.brown_kwh.value());  // UNITS: plotting series (kWh/slot)
  }
  return out;
}

std::vector<double> Metrics::queue_series() const {
  std::vector<double> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) out.push_back(s.queue_length);
  return out;
}

std::vector<double> Metrics::delay_cost_series() const {
  std::vector<double> out;
  out.reserve(slots_.size());
  for (const auto& s : slots_) {
    out.push_back(s.delay_cost.value());  // UNITS: plotting series ($/slot)
  }
  return out;
}

std::vector<double> Metrics::deficit_series(
    const energy::CarbonBudget& budget) const {
  return budget.deficit_series(brown_series());
}

double Metrics::average_deficit(const energy::CarbonBudget& budget) const {
  const auto series = deficit_series(budget);
  return util::mean_of(series);
}

}  // namespace coca::sim

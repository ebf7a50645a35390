#include "baselines/perfect_hp.hpp"

#include <algorithm>
#include <stdexcept>

namespace coca::baselines {
namespace {

constexpr std::size_t kWindowHours = 48;  // prediction horizon (paper: 48 h)

}  // namespace

PerfectHpController::PerfectHpController(
    const dc::Fleet& fleet, opt::SlotWeights weights,
    const coca::workload::Trace& workload_forecast,
    const energy::CarbonBudget& budget)
    : fleet_(&fleet), weights_(weights) {
  weights_.V = 1.0;
  weights_.q = 0.0;
  const std::size_t hours = workload_forecast.size();
  if (budget.slots() != hours) {
    throw std::invalid_argument("PerfectHP: budget/forecast size mismatch");
  }

  // Even split of the annual allowance across prediction windows, then
  // workload-proportional allocation within each window.
  const double allowance = budget.total_allowance();
  const double per_hour = allowance / static_cast<double>(hours);
  caps_.assign(hours, 0.0);
  for (std::size_t start = 0; start < hours; start += kWindowHours) {
    const std::size_t end = std::min(hours, start + kWindowHours);
    const double window_budget =
        per_hour * static_cast<double>(end - start);
    double window_load = 0.0;
    for (std::size_t t = start; t < end; ++t) window_load += workload_forecast[t];
    for (std::size_t t = start; t < end; ++t) {
      caps_[t] = window_load > 0.0
                     ? window_budget * workload_forecast[t] / window_load
                     : window_budget / static_cast<double>(end - start);
    }
  }
}

opt::SlotSolution PerfectHpController::plan(std::size_t t,
                                            const opt::SlotInput& input) {
  if (t >= caps_.size()) {
    throw std::out_of_range("PerfectHP::plan: slot beyond the budgeted horizon");
  }
  const auto result = solver_.solve(*fleet_, input, weights_, caps_[t]);
  if (result.cap_dropped) ++caps_dropped_;
  return result.solution;
}

}  // namespace coca::baselines

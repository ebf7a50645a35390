#pragma once
// Renewable portfolio assembly: combines solar and wind plants into the two
// renewable streams of the paper's model,
//   r(t): on-site renewable power, usable directly by the data center (Eq. 3),
//   f(t): off-site renewable energy delivered through PPAs, which only offsets
//         brown usage in the carbon-neutrality constraint (Eq. 10).
// Portfolios are scaled by *total annual energy*, matching how the paper
// sizes them (on-site ~ 20% of consumption; off-site = a share of the budget).

#include <cstdint>

#include "workload/trace.hpp"

namespace coca::energy {

struct PortfolioConfig {
  std::size_t hours = coca::workload::kHoursPerYear;
  double solar_fraction = 0.6;  ///< share of portfolio energy from solar
  std::uint64_t seed = 11;
};

/// Blend solar + wind into one trace whose total energy is
/// `target_total_kwh`.  The solar/wind split is by energy share.
coca::workload::Trace make_portfolio_trace(double target_total_kwh,
                                           const PortfolioConfig& config,
                                           std::string name);

/// On-site portfolio r(t): solar-heavy by default (rooftop panels plus a
/// small turbine), per the paper's on-site generation discussion.
coca::workload::Trace make_onsite_trace(double target_total_kwh,
                                        std::uint64_t seed = 11,
                                        std::size_t hours =
                                            coca::workload::kHoursPerYear);

/// Off-site PPA portfolio f(t): wind-heavy by default (utility-scale PPAs,
/// e.g. Google's wind-farm agreements cited by the paper).
coca::workload::Trace make_offsite_trace(double target_total_kwh,
                                         std::uint64_t seed = 12,
                                         std::size_t hours =
                                             coca::workload::kHoursPerYear);

/// Rescale a trace so its total (sum over slots) equals `target_total`.
coca::workload::Trace scaled_to_total(const coca::workload::Trace& trace,
                                      double target_total);

}  // namespace coca::energy

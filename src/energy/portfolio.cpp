#include "energy/portfolio.hpp"

#include <stdexcept>

#include "energy/solar.hpp"
#include "energy/wind.hpp"

namespace coca::energy {

using coca::workload::Trace;

Trace scaled_to_total(const Trace& trace, double target_total) {
  const double current = trace.total();
  if (current <= 0.0) {
    throw std::domain_error("scaled_to_total: trace has zero total energy");
  }
  if (target_total < 0.0) {
    throw std::invalid_argument("scaled_to_total: negative target");
  }
  return trace.scaled(target_total / current);
}

Trace make_portfolio_trace(double target_total_kwh,
                           const PortfolioConfig& config, std::string name) {
  SolarConfig solar_config;
  solar_config.hours = config.hours;
  solar_config.seed = config.seed * 1000 + 1;
  WindConfig wind_config;
  wind_config.hours = config.hours;
  wind_config.seed = config.seed * 1000 + 2;

  Trace solar = make_solar_trace(solar_config);
  Trace wind = make_wind_trace(wind_config);
  solar = scaled_to_total(solar, target_total_kwh * config.solar_fraction);
  wind = scaled_to_total(wind, target_total_kwh * (1.0 - config.solar_fraction));
  return Trace::add(solar, wind, std::move(name));
}

Trace make_onsite_trace(double target_total_kwh, std::uint64_t seed,
                        std::size_t hours) {
  PortfolioConfig config;
  config.hours = hours;
  config.solar_fraction = 0.7;
  config.seed = seed;
  return make_portfolio_trace(target_total_kwh, config, "onsite");
}

Trace make_offsite_trace(double target_total_kwh, std::uint64_t seed,
                         std::size_t hours) {
  PortfolioConfig config;
  config.hours = hours;
  config.solar_fraction = 0.3;
  config.seed = seed;
  return make_portfolio_trace(target_total_kwh, config, "offsite");
}

}  // namespace coca::energy

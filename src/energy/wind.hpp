#pragma once
// Synthetic wind generation (substitute for CAISO 2012 hourly wind data).
//
// Model: an AR(1) process on a latent wind-speed variable with a Weibull-like
// marginal, pushed through a standard turbine power curve (cut-in / rated /
// cut-out).  Captures what matters for the controller: multi-hour
// autocorrelation, calm spells and rated-power plateaus.

#include <cstdint>

#include "workload/trace.hpp"

namespace coca::energy {

struct WindConfig {
  std::size_t hours = coca::workload::kHoursPerYear;
  double nameplate_kw = 10'000.0;
  double mean_speed_ms = 7.5;    ///< long-run mean wind speed (m/s)
  double speed_sigma = 2.8;      ///< marginal standard deviation (m/s)
  double persistence = 0.96;     ///< hourly AR(1) coefficient
  double cut_in_ms = 3.0;
  double rated_ms = 12.0;
  double cut_out_ms = 25.0;
  double diurnal_amplitude = 0.10;  ///< mild afternoon breeze effect
  std::uint64_t seed = 202;
};

/// Generate the wind trace (kW per hourly slot).
coca::workload::Trace make_wind_trace(const WindConfig& config = {});

/// Normalized turbine power curve in [0,1].  Exposed for tests.
double turbine_power_curve(double speed_ms, const WindConfig& config);

}  // namespace coca::energy

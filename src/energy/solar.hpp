#pragma once
// Synthetic solar generation (substitute for the paper's CAISO 2012 hourly
// solar data for Mountain View / California).
//
// Model: clear-sky irradiance shaped by day length and sun elevation (both
// seasonal), attenuated by an autocorrelated cloud process, times the plant's
// nameplate capacity.  Produces an hourly kW trace with the properties the
// controller reacts to: zero at night, seasonal capacity factor swing, and
// day-to-day intermittency.

#include <cstdint>

#include "workload/trace.hpp"

namespace coca::energy {

struct SolarConfig {
  std::size_t hours = coca::workload::kHoursPerYear;
  double nameplate_kw = 10'000.0;   ///< plant size
  double latitude_deg = 37.4;       ///< Mountain View
  double cloud_attenuation = 0.45;  ///< mean generation lost to clouds at full overcast
  double cloud_persistence = 0.85;  ///< AR(1) coefficient of the daily cloud state
  double cloud_sigma = 0.35;        ///< innovation scale of the cloud state
  std::uint64_t seed = 101;
};

/// Generate the solar trace (kW per hourly slot).
coca::workload::Trace make_solar_trace(const SolarConfig& config = {});

/// Clear-sky normalized output in [0,1] for an hour of day / day of year at
/// the given latitude.  Exposed for tests.
double clear_sky_output(double hour_of_day, double day_of_year, double latitude_deg);

}  // namespace coca::energy

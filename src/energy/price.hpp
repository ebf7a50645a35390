#pragma once
// Synthetic hourly real-time electricity price (substitute for the CAISO
// 2012 hourly price for Mountain View used by the paper).
//
// Model: a base price with the classic double-peak diurnal shape (morning and
// evening ramps), weekday premium, mild seasonal drift, mean-reverting noise
// and occasional lognormal price spikes, floored above zero.  Units: $/kWh.

#include <cstdint>

#include "util/units.hpp"
#include "workload/trace.hpp"

namespace coca::energy {

struct PriceConfig {
  std::size_t hours = coca::workload::kHoursPerYear;
  double base_price = 0.060;      ///< $/kWh long-run level
  double diurnal_amplitude = 0.35;  ///< relative swing of the daily shape
  double weekend_discount = 0.12;   ///< relative price drop on weekends
  double seasonal_amplitude = 0.10; ///< summer premium
  double noise_persistence = 0.7;   ///< AR(1) on the relative noise
  double noise_sigma = 0.08;
  double spike_probability = 0.002; ///< per-hour probability of a price spike
  double spike_scale = 2.5;         ///< mean multiple of base at a spike
  double floor_price = 0.005;       ///< $/kWh hard floor
  std::uint64_t seed = 303;

  // Typed views (util/units.hpp) of the $/kWh knobs.
  units::UsdPerKwh base() const { return units::UsdPerKwh{base_price}; }
  units::UsdPerKwh floor() const { return units::UsdPerKwh{floor_price}; }
};

/// Generate the price trace ($/kWh per hourly slot).
coca::workload::Trace make_price_trace(const PriceConfig& config = {});

}  // namespace coca::energy

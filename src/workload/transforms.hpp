#pragma once
// Trace transforms used by the sensitivity studies (Sec. 5.2.4):
// workload overestimation and prediction-error injection.

#include <cstdint>

#include "workload/trace.hpp"

namespace coca::workload {

/// Multiply every slot by the overestimation factor phi >= 1 (paper's
/// Fig. 5(c)).  The controller *plans* with the overestimated trace while the
/// simulator *bills* the true trace; see sim::Scenario.
Trace overestimate(const Trace& trace, double phi);

/// Inject multiplicative prediction error: each slot scaled by an independent
/// uniform factor in [1-error, 1+error].  Models imperfect hour-ahead
/// knowledge of lambda(t).
Trace with_prediction_error(const Trace& trace, double error, std::uint64_t seed);

}  // namespace coca::workload

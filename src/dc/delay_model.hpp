#pragma once
// Delay-cost model (Eq. 4): each server is an M/G/1/PS queue; the delay cost
// of a server is its average response time multiplied by its arrival rate,
// which by Little's law equals the mean number of jobs in the system:
//     d_i(lambda, x) = lambda / (x - lambda).
// The fleet delay cost is the sum over servers.  The utilization cap
// gamma < 1 (constraint 7) keeps every term finite.

#include "dc/power_model.hpp"

namespace coca::dc {

/// Mean response time of an M/G/1/PS queue with service rate `rate` (jobs/s)
/// and arrival rate `lambda` (seconds).  Requires lambda < rate.
double mg1ps_mean_response_seconds(double lambda, double rate);

/// Mean number of jobs in the system: lambda / (rate - lambda); +inf at or
/// beyond saturation.
double mg1ps_jobs_in_system(double lambda, double rate);

/// Total fleet delay cost d (Eq. 4): sum over groups of
/// active * a/(x - a) with per-server load a.  +inf if any server saturated.
/// The object-model reference: it sums `ServerGroup::delay_cost`, which
/// `opt::evaluate`'s table pass (`group_terms`) must equal.
double total_delay_jobs(const Fleet& fleet, const Allocation& alloc);

}  // namespace coca::dc

#pragma once
// Carbon-neutrality budget (the right-hand side of Eq. 10) and the deficit
// bookkeeping the evaluation reports.
//
// The budget consists of the off-site renewable trace f(t) plus the REC
// block Z, scaled by the aggressiveness parameter alpha.  The paper's
// "carbon deficit" metric (Figs. 2-3) is
//     deficit(t) = y(t) - alpha * (f(t) + Z/J)
// i.e. hourly brown energy minus the hourly allowance; its long-run average
// must be <= 0 for neutrality.

#include <cstddef>
#include <vector>

#include "util/units.hpp"
#include "workload/trace.hpp"

namespace coca::energy {

class CarbonBudget {
 public:
  /// `offsite`: f(t) trace (kWh per slot); `recs_kwh`: Z; `alpha`: Eq. 10's
  /// capping parameter.
  CarbonBudget(coca::workload::Trace offsite, double recs_kwh, double alpha);

  const coca::workload::Trace& offsite() const { return offsite_; }
  double recs_kwh() const { return recs_kwh_; }
  double alpha() const { return alpha_; }
  std::size_t slots() const { return offsite_.size(); }

  /// Total annual allowance: alpha * (sum_t f(t) + Z).
  double total_allowance() const;
  /// Per-slot REC share z = Z / J (unscaled kWh) fed to the deficit queue,
  /// which applies alpha itself (Eq. 17: q + y - alpha*(f + z)).
  double rec_per_slot() const;
  /// Slot allowance alpha * (f(t) + z).
  double slot_allowance(std::size_t t) const;

  // Typed layer (util/units.hpp): every allowance term of Eq. 10 / Eq. 17 is
  // energy, and these views keep it that way at the call sites.
  units::KiloWattHours recs() const { return units::KiloWattHours{recs_kwh_}; }

  /// Carbon deficit series for a brown-energy usage series y(t):
  /// deficit[t] = y[t] - slot_allowance(t).  Sizes must match.
  std::vector<double> deficit_series(std::span<const double> brown_kwh) const;

  /// True iff the usage series satisfies the long-term constraint (10)
  /// within a relative tolerance.
  bool satisfied(std::span<const double> brown_kwh, double rel_tol = 1e-6) const;

  /// Budget with the same off-site trace shape but the total allowance
  /// rescaled to `target_allowance` by scaling both f and Z proportionally.
  CarbonBudget rescaled_to_allowance(double target_allowance) const;

  /// Budget with the same *total* (f + Z) but a different off-site/REC mix;
  /// `offsite_share` in [0, 1].  Used by the portfolio-mix ablation.
  CarbonBudget with_mix(double offsite_share) const;

 private:
  coca::workload::Trace offsite_;
  double recs_kwh_;
  double alpha_;
};

}  // namespace coca::energy

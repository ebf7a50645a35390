#pragma once
// Renewable Energy Certificate (REC) accounting.
//
// The paper assumes a fixed amount Z of RECs purchased before the budgeting
// period (Sec. 2.2) and retires them against brown energy.  The ledger tracks
// purchases and retirements in kWh-equivalents and exposes the carbon
// accounting used by the neutrality constraint (Eq. 10).

#include <cstddef>
#include <stdexcept>

namespace coca::energy {

class RecLedger {
 public:
  RecLedger() = default;
  /// Ledger pre-loaded with the paper's up-front purchase Z (kWh-equivalent).
  explicit RecLedger(double initial_purchase_kwh);

  /// Buy additional RECs (kWh-equivalent, must be >= 0).
  void purchase(double kwh);
  /// Retire RECs against brown usage; retiring more than the balance throws.
  void retire(double kwh);
  /// Retire as much of `kwh` as the balance allows; returns the amount
  /// actually retired.
  double retire_up_to(double kwh);

  /// Crash/restart: replace the ledger totals with a checkpointed snapshot
  /// (core/checkpoint.hpp).  Throws std::invalid_argument, leaving the
  /// ledger unchanged, unless both totals are finite and
  /// 0 <= retired <= purchased.
  void restore(double purchased_kwh, double retired_kwh);

  double balance() const { return purchased_ - retired_; }
  double purchased_total() const { return purchased_; }
  double retired_total() const { return retired_; }

 private:
  double purchased_ = 0.0;
  double retired_ = 0.0;
};

/// End-of-period carbon account: brown electricity drawn from the grid vs
/// green offsets (off-site renewable energy plus retired RECs).
struct CarbonAccount {
  double brown_kwh = 0.0;    ///< sum of [p(t) - r(t)]^+ over the period
  double offsite_kwh = 0.0;  ///< sum of f(t) over the period
  double rec_kwh = 0.0;      ///< RECs applied (Z)

  double offsets() const { return offsite_kwh + rec_kwh; }
  /// Net footprint relative to the alpha-scaled allowance; <= 0 means the
  /// neutrality constraint (10) is met.
  double excess(double alpha) const { return brown_kwh - alpha * offsets(); }
  bool neutral(double alpha) const { return excess(alpha) <= 1e-9 * offsets(); }
};

}  // namespace coca::energy

#include "energy/rec_ledger.hpp"

#include <algorithm>
#include <cmath>

namespace coca::energy {

RecLedger::RecLedger(double initial_purchase_kwh) { purchase(initial_purchase_kwh); }

void RecLedger::purchase(double kwh) {
  if (kwh < 0.0) throw std::invalid_argument("RecLedger::purchase: negative amount");
  purchased_ += kwh;
}

void RecLedger::retire(double kwh) {
  if (kwh < 0.0) throw std::invalid_argument("RecLedger::retire: negative amount");
  // Tolerance scales with the ledger volume: balance() is a difference of
  // large accumulated sums, so its floating-point noise grows with
  // purchased_ (a year of hourly purchases drifts well past any absolute
  // epsilon).
  const double tolerance = 1e-9 * std::max(1.0, purchased_);
  if (kwh > balance() + tolerance) {
    throw std::domain_error("RecLedger::retire: insufficient balance");
  }
  retired_ += kwh;
}

double RecLedger::retire_up_to(double kwh) {
  if (kwh < 0.0) throw std::invalid_argument("RecLedger::retire_up_to: negative amount");
  const double amount = std::min(kwh, balance());
  retired_ += amount;
  return amount;
}

void RecLedger::restore(double purchased_kwh, double retired_kwh) {
  if (!std::isfinite(purchased_kwh) || !std::isfinite(retired_kwh) ||
      retired_kwh < 0.0 || purchased_kwh < retired_kwh) {
    throw std::invalid_argument(
        "RecLedger::restore: need finite 0 <= retired <= purchased");
  }
  purchased_ = purchased_kwh;
  retired_ = retired_kwh;
}

}  // namespace coca::energy

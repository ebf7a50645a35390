#pragma once
// Dynamic real-time REC procurement — the alternative purchasing approach
// Sec. 2.2 says the model accommodates ("e.g., dynamic purchase in real
// time") but the paper evaluates only as a fixed up-front block Z.
//
// The policy drops out of the same drift-plus-penalty algebra as COCA
// itself: buying b kWh of RECs at spot price c(t) adds V*c(t)*b to the
// penalty and -alpha*b to the queue drift, so the greedy minimizer of
// (drift + V*penalty) buys at full allowed volume exactly when
//     V * c(t) < alpha * q(t),
// i.e. when the carbon-deficit queue's shadow price exceeds the market
// price.  The result is a bang-bang threshold policy: RECs are procured
// opportunistically when cheap or when the deficit is pressing, instead of
// being committed a year ahead.
//
// DynamicRecCocaController runs Algorithm 1 unchanged for capacity/load
// decisions and adds the purchase decision after each slot's realization;
// purchased RECs enter a ledger and offset the queue exactly like alpha*f(t).

#include "core/coca_controller.hpp"
#include "energy/rec_ledger.hpp"
#include "workload/trace.hpp"

namespace coca::core {

struct RecMarketConfig {
  /// Spot REC price per slot ($/kWh-equivalent).
  coca::workload::Trace spot_price;
  /// Procurement budget over the horizon (kWh-equivalent); 0 = unlimited.
  double max_total_kwh = 0.0;
  /// Market liquidity: largest purchase per slot (kWh-equivalent).
  double max_per_slot_kwh = 0.0;
};

class DynamicRecCocaController final : public SlotController {
 public:
  /// `config.rec_per_slot` should reflect only the *pre-purchased* block
  /// (possibly 0 — fully dynamic procurement).  Plans with the ladder
  /// engine; throws std::invalid_argument for any other `config.engine`.
  DynamicRecCocaController(const dc::Fleet& fleet, CocaConfig config,
                           RecMarketConfig market);

  std::string name() const override { return "COCA+dynamic-RECs"; }
  opt::SlotSolution plan(std::size_t t, const opt::SlotInput& input) override;
  void observe(std::size_t t, const opt::SlotOutcome& billed,
               double offsite_kwh) override;
  double diagnostic_queue_length() const override { return queue_.length(); }
  SlotDiagnostics diagnostics(std::size_t t) const override;

  /// Degraded-mode hooks: capacity hot-swap plus coca-ckpt-v2 crash/restart
  /// covering the full purchasing state (queue, ledger totals, spend).
  void set_fleet(const dc::Fleet& fleet) override { fleet_ = &fleet; }
  bool supports_checkpoint() const override { return true; }
  std::string checkpoint(std::size_t upto_slot) const override;
  void restore(const std::string& blob) override;

  /// Purchase decision of the threshold policy for the given state; exposed
  /// for tests.  Returns the kWh to buy this slot.
  double purchase_decision(std::size_t t, double queue_length) const;

  double queue_length() const { return queue_.length(); }
  const energy::RecLedger& ledger() const { return ledger_; }
  double total_spend() const { return spend_; }
  double total_purchased_kwh() const { return ledger_.purchased_total(); }
  /// Typed views (util/units.hpp) of the procurement totals.
  units::Usd spend() const { return units::Usd{spend_}; }
  units::KiloWattHours purchased() const {
    return units::KiloWattHours{ledger_.purchased_total()};
  }

 private:
  const dc::Fleet* fleet_;
  CocaConfig config_;
  RecMarketConfig market_;
  CarbonDeficitQueue queue_;
  opt::LadderSolver ladder_;
  energy::RecLedger ledger_;
  double spend_ = 0.0;
};

}  // namespace coca::core

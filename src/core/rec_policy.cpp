#include "core/rec_policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace coca::core {

DynamicRecCocaController::DynamicRecCocaController(const dc::Fleet& fleet,
                                                   CocaConfig config,
                                                   RecMarketConfig market)
    : fleet_(&fleet),
      config_(std::move(config)),
      market_(std::move(market)) {
  if (config_.engine != P3Engine::kLadder) {
    throw std::invalid_argument("DynamicRecCoca: only the ladder engine plans");
  }
  if (market_.spot_price.empty()) {
    throw std::invalid_argument("DynamicRecCoca: empty spot price trace");
  }
  if (market_.max_per_slot_kwh <= 0.0) {
    throw std::invalid_argument("DynamicRecCoca: per-slot cap must be > 0");
  }
}

opt::SlotSolution DynamicRecCocaController::plan(std::size_t t,
                                                 const opt::SlotInput& input) {
  if (config_.schedule.is_frame_start(t)) queue_.reset();
  opt::SlotWeights weights = config_.weights;
  weights.V = config_.schedule.v_for_slot(t);
  weights.q = queue_.length();
  const obs::ScopedSpan ladder_span("ladder_solve");
  return ladder_.solve(*fleet_, input, weights);
}

double DynamicRecCocaController::purchase_decision(std::size_t t,
                                                   double queue_length) const {
  if (t >= market_.spot_price.size()) return 0.0;
  const double v = config_.schedule.v_for_slot(t);
  const double price = market_.spot_price[t];
  // Drift-plus-penalty: buy iff alpha * q > V * c(t).  The threshold compares
  // Lyapunov weights across units (shadow-price algebra), so it stays raw.
  if (config_.alpha * queue_length <= v * price) return 0.0;
  units::KiloWattHours amount{market_.max_per_slot_kwh};
  if (market_.max_total_kwh > 0.0) {
    amount = units::min(
        amount, units::KiloWattHours{market_.max_total_kwh} - purchased());
  }
  // Never buy more than the queue can absorb (the extra would be clamped
  // away by the [.]^+ in Eq. 17 and the money wasted).
  amount = units::min(amount, units::KiloWattHours{queue_length} / config_.alpha);
  return units::positive_part(amount).value();  // UNITS: raw kWh to ledger
}

void DynamicRecCocaController::observe(std::size_t t,
                                       const opt::SlotOutcome& billed,
                                       double offsite_kwh) {
  const obs::ScopedSpan rec_span("rec_policy");
  // First the ordinary Eq. 17 update with the realized off-site renewables
  // and any pre-purchased per-slot block ...
  queue_.update(billed.brown_energy(), units::KiloWattHours{offsite_kwh},
                config_.alpha, units::KiloWattHours{config_.rec_per_slot});
  // ... then the procurement decision against the post-update queue: the
  // purchase offsets deficit exactly like alpha*f would have.
  const double bought = purchase_decision(t, queue_.length());
  if (bought > 0.0) {
    obs::count("rec.purchases");
    obs::observe("rec.purchase_kwh", bought);
    ledger_.purchase(bought);
    // Retired immediately against the deficit; clamped so accumulated
    // floating-point drift in the ledger can never throw mid-year.
    ledger_.retire_up_to(bought);
    // kWh * $/kWh -> $, dimension-checked.
    const units::Usd cost = units::KiloWattHours{bought} *
                            units::UsdPerKwh{market_.spot_price[t]};
    spend_ += cost.value();  // UNITS: cumulative spend reported raw ($)
    // Purchases flow through Eq. 17's REC channel z(t) — unscaled kWh, the
    // queue applies alpha — so b kWh bought drops q by exactly alpha*b
    // (pinned by RecConventionEndToEnd in core_rec_policy_test).
    queue_.update(units::KiloWattHours{}, units::KiloWattHours{},
                  config_.alpha, units::KiloWattHours{bought});
  }
}

std::string DynamicRecCocaController::checkpoint(std::size_t upto_slot) const {
  std::string state = ",\"queue\":" + queue_to_json(queue_);
  state += ",\"ledger\":{\"purchased\":";
  state += obs::json_number(ledger_.purchased_total());
  state += ",\"retired\":";
  state += obs::json_number(ledger_.retired_total());
  state += "},\"spend\":";
  state += obs::json_number(spend_);
  return render_checkpoint(name(), upto_slot, state);
}

void DynamicRecCocaController::restore(const std::string& blob) {
  const obs::JsonValue doc = parse_checkpoint(blob, name());
  // Everything is read and checked into locals first, so a rejected blob
  // leaves the controller exactly as it was.
  CarbonDeficitQueue queue;
  queue_from_json(doc.at("queue"), queue);
  energy::RecLedger ledger;
  const auto& ledger_doc = doc.at("ledger");
  ledger.restore(ledger_doc.at("purchased").as_double(),
                 ledger_doc.at("retired").as_double());
  const double spend = doc.at("spend").as_double();
  if (!std::isfinite(spend) || spend < 0.0) {
    throw std::invalid_argument("DynamicRecCoca::restore: invalid spend");
  }
  queue_ = queue;
  ledger_ = ledger;
  spend_ = spend;
  obs::count("rec.restores");
}

SlotDiagnostics DynamicRecCocaController::diagnostics(std::size_t t) const {
  SlotDiagnostics d;
  d.queue_length = queue_.length();
  d.v = config_.schedule.v_for_slot(t);
  d.rec_spend_total = spend_;
  d.solver_evaluations = 1;  // one ladder solve per slot
  return d;
}

}  // namespace coca::core

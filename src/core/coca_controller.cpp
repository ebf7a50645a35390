#include "core/coca_controller.hpp"

#include "core/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace coca::core {

CocaController::CocaController(const dc::Fleet& fleet, CocaConfig config)
    : fleet_(&fleet),
      config_(std::move(config)),
      ladder_(config_.ladder),
      lp_(fleet) {}

void CocaController::set_fleet(const dc::Fleet& fleet) {
  fleet_ = &fleet;
  lp_ = opt::LoadLpContext(fleet);
}

opt::SlotSolution CocaController::plan(std::size_t t,
                                       const opt::SlotInput& input) {
  // Algorithm 1 lines 2-4: frame boundary => queue reset, V <- V_r.
  if (config_.schedule.is_frame_start(t)) queue_.reset();

  opt::SlotWeights weights = config_.weights;
  weights.V = config_.schedule.v_for_slot(t);
  weights.q = queue_.length();

  obs::count("coca.slots_planned");

  // Line 5: solve P3.
  if (config_.engine == P3Engine::kGsd) {
    opt::GsdConfig gsd = config_.gsd;
    // Decorrelate the sampler across slots while staying deterministic.
    gsd.seed = config_.gsd.seed + t * 0x9e3779b9ULL;
    // Deadline budget (fault injection): GSD is anytime — capping iterations
    // returns the best-feasible-so-far point after at most that many
    // objective evaluations per chain.
    if (eval_budget_ >= 0 &&
        eval_budget_ < static_cast<std::int64_t>(gsd.iterations)) {
      gsd.iterations = static_cast<int>(eval_budget_);
    }
    const auto result = opt::GsdSolver(gsd).solve(*fleet_, input, weights);
    last_solve_.solver_evaluations = result.evaluations;
    last_solve_.solver_accepted = result.accepted;
    last_solve_.solver_chains = result.chains_run;
    last_solve_.solver_winning_chain = result.winning_chain;
    return result.best;
  }
  last_solve_.solver_evaluations = 1;  // one closed-form ladder solve
  last_solve_.solver_accepted = 0;
  last_solve_.solver_chains = 0;
  last_solve_.solver_winning_chain = -1;
  const obs::ScopedSpan ladder_span("ladder_solve");
  return ladder_.solve(*fleet_, input, weights, &lp_);
}

void CocaController::observe(std::size_t t, const opt::SlotOutcome& billed,
                             double offsite_kwh) {
  (void)t;
  const obs::ScopedSpan queue_span("queue_update");
  // Line 6: Eq. 17 with the realized f(t) — through the typed layer, so the
  // queue only ever ingests energies.  `rec_per_slot` is the unscaled Z/J;
  // the queue applies alpha to both offsets.
  queue_.update(billed.brown_energy(), units::KiloWattHours{offsite_kwh},
                config_.alpha, units::KiloWattHours{config_.rec_per_slot});
  obs::gauge_set("coca.queue_kwh", queue_.length());
}

std::string CocaController::checkpoint(std::size_t upto_slot) const {
  return render_checkpoint(name(), upto_slot, ",\"queue\":" +
                                                  queue_to_json(queue_));
}

void CocaController::restore(const std::string& blob) {
  const obs::JsonValue doc = parse_checkpoint(blob, name());
  queue_from_json(doc.at("queue"), queue_);
  obs::count("coca.restores");
}

SlotDiagnostics CocaController::diagnostics(std::size_t t) const {
  SlotDiagnostics d = last_solve_;
  d.queue_length = queue_.length();
  d.v = config_.schedule.v_for_slot(t);
  return d;
}

}  // namespace coca::core

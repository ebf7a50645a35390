#pragma once
// COCA (Algorithm 1): the paper's online controller.
//
// Per slot t:
//   1. At frame boundaries (t = r*T): reset the carbon-deficit queue and load
//      the frame's cost-carbon parameter V_r  (lines 2-4).
//   2. Solve P3 — minimize V*g + q(t)*y over speeds and loads subject to
//      constraints (7)(8)(9)  (line 5), with a pluggable engine: the fast
//      ladder solver (default) or the paper's distributed GSD sampler.
//   3. After the slot, update the queue by Eq. 17 with the realized off-site
//      renewables  (line 6).
//
// COCA needs no future information: only lambda(t), r(t), w(t) before the
// slot and f(t) after it.

#include <memory>

#include "core/controller.hpp"
#include "core/deficit_queue.hpp"
#include "core/v_schedule.hpp"
#include "opt/gsd.hpp"

namespace coca::core {

/// Which engine solves P3 each slot.
enum class P3Engine {
  kLadder,  ///< fast centralized near-exact solver (default)
  kGsd,     ///< the paper's Gibbs-sampling distributed optimization
};

struct CocaConfig {
  /// Model parameters (beta, gamma, pue, slot_hours); V and q are managed by
  /// the controller and overwritten every slot.
  opt::SlotWeights weights;
  VSchedule schedule = VSchedule::constant(1.0);
  double alpha = 1.0;         ///< carbon-capping aggressiveness (Eq. 10)
  /// z = Z / J, the pre-purchased REC block's per-slot share in *unscaled*
  /// kWh (Eq. 17's queue update applies alpha; see core/deficit_queue.hpp).
  double rec_per_slot = 0.0;
  P3Engine engine = P3Engine::kLadder;
  opt::GsdConfig gsd;
};

class CocaController final : public SlotController {
 public:
  CocaController(const dc::Fleet& fleet, CocaConfig config);

  std::string name() const override { return "COCA"; }
  opt::SlotSolution plan(std::size_t t, const opt::SlotInput& input) override;
  void observe(std::size_t t, const opt::SlotOutcome& billed,
               double offsite_kwh) override;

  double queue_length() const { return queue_.length(); }
  double diagnostic_queue_length() const override { return queue_.length(); }
  SlotDiagnostics diagnostics(std::size_t t) const override;

  /// Hot-swap the managed fleet mid-run (failure / repair events): the
  /// carbon-deficit queue and the V schedule carry over, only capacity
  /// changes.  The fleet must keep the same group structure (allocations are
  /// per group) and must outlive the controller.
  void set_fleet(const dc::Fleet& fleet) override { fleet_ = &fleet; }

  /// Deadline-overrun hook: caps GSD at `max_evaluations` objective
  /// evaluations per solve (anytime: the best-so-far point is returned);
  /// negative lifts the cap.  The ladder engine completes in one evaluation
  /// and is unaffected by any positive budget.
  void set_evaluation_budget(std::int64_t max_evaluations) override {
    eval_budget_ = max_evaluations;
  }

  /// coca-ckpt-v2 crash/restart: the carbon-deficit queue is the
  /// controller's only cross-slot state (V_r is a pure function of t).
  bool supports_checkpoint() const override { return true; }
  std::string checkpoint(std::size_t upto_slot) const override;
  void restore(const std::string& blob) override;

  const CarbonDeficitQueue& queue() const { return queue_; }
  const CocaConfig& config() const { return config_; }

 private:
  const dc::Fleet* fleet_;
  CocaConfig config_;
  CarbonDeficitQueue queue_;
  opt::LadderSolver ladder_;
  std::int64_t eval_budget_ = -1;  ///< GSD evaluation cap; < 0 = unlimited
  /// Solver internals of the most recent plan() (for diagnostics()).
  SlotDiagnostics last_solve_;
};

}  // namespace coca::core

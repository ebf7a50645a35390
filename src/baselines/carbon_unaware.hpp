#pragma once
// Carbon-unaware baseline: minimizes the instantaneous cost g(t) every slot
// and ignores carbon neutrality entirely.  This is the paper's V -> infinity
// limit of COCA (Sec. 5.2.1) and the yardstick against which the evaluation
// normalizes electricity usage (its annual consumption defines the "1.0"
// budget in Fig. 5).

#include "core/controller.hpp"

namespace coca::baselines {

class CarbonUnawareController final : public core::SlotController {
 public:
  CarbonUnawareController(const dc::Fleet& fleet, opt::SlotWeights weights);

  std::string name() const override { return "carbon-unaware"; }
  opt::SlotSolution plan(std::size_t t, const opt::SlotInput& input) override;

  /// Stateless per-slot minimizer: capacity hot-swap (fault injection)
  /// re-seats the fleet pointer.
  void set_fleet(const dc::Fleet& fleet) override { fleet_ = &fleet; }

 private:
  const dc::Fleet* fleet_;
  opt::SlotWeights weights_;
  opt::LadderSolver solver_;
};

}  // namespace coca::baselines

#include "baselines/carbon_unaware.hpp"

namespace coca::baselines {

CarbonUnawareController::CarbonUnawareController(const dc::Fleet& fleet,
                                                 opt::SlotWeights weights)
    : fleet_(&fleet), weights_(weights) {
  // Pure cost minimization: V = 1, no deficit pressure.
  weights_.V = 1.0;
  weights_.q = 0.0;
}

opt::SlotSolution CarbonUnawareController::plan(std::size_t t,
                                                const opt::SlotInput& input) {
  (void)t;
  return solver_.solve(*fleet_, input, weights_);
}

}  // namespace coca::baselines

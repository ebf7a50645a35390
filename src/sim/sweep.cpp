#include "sim/sweep.hpp"

#include "obs/metrics.hpp"

namespace coca::sim {

SweepRunner::SweepRunner(SweepOptions options) : pool_(options.threads) {
  obs::gauge_set("sweep.threads", static_cast<double>(pool_.thread_count()));
}

}  // namespace coca::sim

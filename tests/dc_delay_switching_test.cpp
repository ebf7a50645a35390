// Tests for the M/G/1/PS delay-cost model (Eq. 4) and the switching-cost
// model (Fig. 5(d)), including numeric convexity checks of the delay cost.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "dc/delay_model.hpp"
#include "dc/switching.hpp"

namespace coca::dc {
namespace {

TEST(Mg1Ps, ResponseTimeFormula) {
  EXPECT_DOUBLE_EQ(mg1ps_mean_response_seconds(5.0, 10.0), 0.2);
  EXPECT_TRUE(std::isinf(mg1ps_mean_response_seconds(10.0, 10.0)));
  EXPECT_THROW(mg1ps_mean_response_seconds(1.0, 0.0), std::domain_error);
  EXPECT_THROW(mg1ps_mean_response_seconds(-1.0, 1.0), std::domain_error);
}

TEST(Mg1Ps, JobsInSystemIsLittlesLaw) {
  // N = lambda * E[T].
  const double lambda = 6.0, rate = 10.0;
  EXPECT_NEAR(mg1ps_jobs_in_system(lambda, rate),
              lambda * mg1ps_mean_response_seconds(lambda, rate), 1e-12);
}

TEST(Mg1Ps, JobsInSystemIsRhoOverOneMinusRho) {
  const double rho = 0.75;
  EXPECT_NEAR(mg1ps_jobs_in_system(rho * 10.0, 10.0), rho / (1.0 - rho), 1e-12);
}

TEST(Mg1Ps, ConvexIncreasingInLambda) {
  // d(lambda) = lambda/(x-lambda): check numerically that the second
  // difference is positive (convex) and first difference positive.
  const double rate = 10.0;
  const double h = 0.01;
  for (double lambda = 0.5; lambda < 8.5; lambda += 0.5) {
    const double d0 = mg1ps_jobs_in_system(lambda - h, rate);
    const double d1 = mg1ps_jobs_in_system(lambda, rate);
    const double d2 = mg1ps_jobs_in_system(lambda + h, rate);
    ASSERT_GT(d2, d1);
    ASSERT_GT(d2 - 2.0 * d1 + d0, 0.0) << "non-convex at " << lambda;
  }
}

TEST(Mg1Ps, DecreasingInServiceRate) {
  double prev = std::numeric_limits<double>::infinity();
  for (double rate = 6.0; rate <= 12.0; rate += 1.0) {
    const double d = mg1ps_jobs_in_system(5.0, rate);
    ASSERT_LT(d, prev);
    prev = d;
  }
}

TEST(FleetDelay, SumsGroupsAndHandlesIdle) {
  const Fleet fleet = make_homogeneous_fleet(2, 10);
  Allocation alloc(2);
  alloc[0] = {3, 2.0, 10.0};  // rho = 0.5 each => 1 job per server => 2 total
  alloc[1] = {3, 0.0, 0.0};
  EXPECT_NEAR(total_delay_jobs(fleet, alloc), 2.0, 1e-12);
}

TEST(FleetDelay, LoadBalancingAcrossTwoServersBeatsConcentration) {
  // Convexity consequence: an even split has lower total delay than a skewed
  // split at equal speeds.
  const Fleet fleet = make_homogeneous_fleet(2, 1);
  Allocation even(2), skewed(2);
  even[0] = {3, 1.0, 4.0};
  even[1] = {3, 1.0, 4.0};
  skewed[0] = {3, 1.0, 6.0};
  skewed[1] = {3, 1.0, 2.0};
  EXPECT_LT(total_delay_jobs(fleet, even), total_delay_jobs(fleet, skewed));
}

TEST(Switching, TogglesCountAbsoluteActiveDeltas) {
  Allocation prev(2), next(2);
  prev[0] = {3, 10.0, 0.0};
  prev[1] = {2, 5.0, 0.0};
  next[0] = {3, 7.0, 0.0};   // 3 off
  next[1] = {1, 9.0, 0.0};   // 4 on (level change is free)
  EXPECT_DOUBLE_EQ(toggles_between(prev, next), 7.0);
}

TEST(Switching, EnergyScalesPerToggle) {
  Allocation prev(1), next(1);
  prev[0] = {3, 10.0, 0.0};
  next[0] = {3, 4.0, 0.0};
  const SwitchingModel model{0.0231};  // 10% of 0.231 kWh, paper's worst case
  EXPECT_NEAR(switching_energy_kwh(model, prev, next), 6.0 * 0.0231, 1e-12);
  EXPECT_DOUBLE_EQ(switching_energy_kwh({0.0}, prev, next), 0.0);
}

TEST(Switching, Validation) {
  Allocation a(1), b(2);
  EXPECT_THROW(toggles_between(a, b), std::invalid_argument);
  EXPECT_THROW(switching_energy_kwh({-1.0}, a, a), std::invalid_argument);
}

TEST(Switching, RejectsNonFinitePerToggleCost) {
  // A NaN or ±inf per-toggle cost is refused where it is read, naming
  // itself, instead of billing NaN switching energy into the deficit queue.
  Allocation prev(1), next(1);
  prev[0] = {3, 10.0, 0.0};
  next[0] = {3, 4.0, 0.0};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    try {
      switching_energy_kwh({bad}, prev, next);
      ADD_FAILURE() << "accepted per-toggle cost " << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(),
                   "switching_energy_kwh: non-finite per-toggle cost");
    }
  }
}

}  // namespace
}  // namespace coca::dc

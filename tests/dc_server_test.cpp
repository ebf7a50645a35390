// Tests for the server hardware model (Eq. 1) and server groups.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "dc/server_group.hpp"

namespace coca::dc {
namespace {

TEST(ServerSpec, Opteron2380MatchesPaperNumbers) {
  const ServerSpec spec = ServerSpec::opteron2380();
  EXPECT_DOUBLE_EQ(spec.static_power_kw(), 0.140);
  ASSERT_EQ(spec.level_count(), 4u);
  EXPECT_DOUBLE_EQ(spec.max_rate(), 10.0);
  // Full-load total powers: 184 / 194 / 208 / 231 W.
  EXPECT_NEAR(spec.power_kw(0, spec.level(0).service_rate), 0.184, 1e-12);
  EXPECT_NEAR(spec.power_kw(1, spec.level(1).service_rate), 0.194, 1e-12);
  EXPECT_NEAR(spec.power_kw(2, spec.level(2).service_rate), 0.208, 1e-12);
  EXPECT_NEAR(spec.power_kw(3, spec.level(3).service_rate), 0.231, 1e-12);
  EXPECT_NEAR(spec.peak_power_kw(), 0.231, 1e-12);
}

TEST(ServerSpec, PowerIsStaticPlusUtilizationScaledDynamic) {
  const ServerSpec spec = ServerSpec::opteron2380();
  // Eq. 1 at half utilization of the top speed.
  EXPECT_NEAR(spec.power_kw(3, 5.0), 0.140 + 0.091 * 0.5, 1e-12);
  // Idle-but-on draws exactly the static power.
  EXPECT_DOUBLE_EQ(spec.power_kw(3, 0.0), 0.140);
}

TEST(ServerSpec, PowerRejectsOutOfRangeLoad) {
  const ServerSpec spec = ServerSpec::opteron2380();
  EXPECT_THROW(spec.power_kw(3, -0.1), std::domain_error);
  EXPECT_THROW(spec.power_kw(3, 10.5), std::domain_error);
}

TEST(ServerSpec, DynamicSlope) {
  const ServerSpec spec = ServerSpec::opteron2380();
  EXPECT_NEAR(spec.dynamic_slope(3), 0.091 / 10.0, 1e-15);
}

TEST(ServerSpec, MonotonePowerInSpeedAtFullLoad) {
  const ServerSpec spec = ServerSpec::opteron2380();
  double prev = 0.0;
  for (std::size_t k = 0; k < spec.level_count(); ++k) {
    const double p = spec.power_kw(k, spec.level(k).service_rate);
    ASSERT_GT(p, prev);
    prev = p;
  }
}

TEST(ServerSpec, ScaledGeneration) {
  const ServerSpec spec = ServerSpec::opteron2380();
  const ServerSpec old = spec.scaled("old", 0.8, 1.1);
  EXPECT_NEAR(old.max_rate(), 8.0, 1e-12);
  EXPECT_NEAR(old.static_power_kw(), 0.154, 1e-12);
  EXPECT_NEAR(old.level(3).dynamic_power_kw, 0.091 * 1.1, 1e-12);
  EXPECT_THROW(spec.scaled("bad", 0.0, 1.0), std::invalid_argument);
  // Non-finite factors are refused, not turned into NaN or inf rates and
  // powers; so is a finite factor whose product overflows (10 req/s times
  // 1e308 is inf).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(spec.scaled("bad", bad, 1.0), std::invalid_argument);
    EXPECT_THROW(spec.scaled("bad", 1.0, bad), std::invalid_argument);
  }
  EXPECT_THROW(spec.scaled("bad", 1e308, 1.0), std::invalid_argument);
}

TEST(ServerSpec, ConstructionValidation) {
  EXPECT_THROW(ServerSpec("x", -0.1, {{1.0, 1.0, 0.1}}), std::invalid_argument);
  EXPECT_THROW(ServerSpec("x", 0.1, {}), std::invalid_argument);
  EXPECT_THROW(ServerSpec("x", 0.1, {{1.0, 0.0, 0.1}}), std::invalid_argument);
  // NaN and ±inf static power, service rate and dynamic power are refused.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(ServerSpec("x", bad, {{1.0, 1.0, 0.1}}),
                 std::invalid_argument);
    EXPECT_THROW(ServerSpec("x", 0.1, {{1.0, bad, 0.1}}),
                 std::invalid_argument);
    EXPECT_THROW(ServerSpec("x", 0.1, {{1.0, 1.0, bad}}),
                 std::invalid_argument);
  }
  // Levels must ascend by service rate.
  EXPECT_THROW(ServerSpec("x", 0.1, {{2.0, 5.0, 0.2}, {1.0, 3.0, 0.1}}),
               std::invalid_argument);
}

TEST(ServerGroup, CapacityAndPeakPower) {
  const ServerGroup group(ServerSpec::opteron2380(), 100);
  EXPECT_DOUBLE_EQ(group.max_capacity(), 1000.0);
  EXPECT_NEAR(group.peak_power_kw(), 23.1, 1e-9);
}

TEST(ServerGroup, ZeroServerGroupModelsTotalFailure) {
  // Failure injection keeps fully-failed groups around with zero servers.
  const ServerGroup dead(ServerSpec::opteron2380(), 0);
  EXPECT_DOUBLE_EQ(dead.max_capacity(), 0.0);
  EXPECT_DOUBLE_EQ(dead.peak_power_kw(), 0.0);
  EXPECT_DOUBLE_EQ(dead.power_kw(3, 0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(dead.delay_cost(3, 0.0, 0.0), 0.0);
}

TEST(ServerGroup, PowerSumsOverActiveServers) {
  const ServerGroup group(ServerSpec::opteron2380(), 10);
  // 4 active at top speed, 20 req/s total => 5 req/s each.
  EXPECT_NEAR(group.power_kw(3, 4.0, 20.0), 4.0 * (0.140 + 0.091 * 0.5), 1e-12);
  EXPECT_DOUBLE_EQ(group.power_kw(3, 0.0, 0.0), 0.0);
}

TEST(ServerGroup, PowerValidation) {
  const ServerGroup group(ServerSpec::opteron2380(), 10);
  EXPECT_THROW(group.power_kw(3, 11.0, 0.0), std::domain_error);
  EXPECT_THROW(group.power_kw(3, 0.0, 5.0), std::domain_error);
  EXPECT_THROW(group.power_kw(3, 2.0, -1.0), std::domain_error);
}

TEST(ServerGroup, DelayCostMatchesMg1Ps) {
  const ServerGroup group(ServerSpec::opteron2380(), 10);
  // 2 active at top speed (10 req/s), 10 req/s total => rho = 0.5 each.
  // Per-server jobs in system = 5/(10-5) = 1; group total = 2.
  EXPECT_NEAR(group.delay_cost(3, 2.0, 10.0), 2.0, 1e-12);
}

TEST(ServerGroup, DelayCostInfinityAtSaturation) {
  const ServerGroup group(ServerSpec::opteron2380(), 10);
  EXPECT_TRUE(std::isinf(group.delay_cost(3, 1.0, 10.0)));
  EXPECT_TRUE(std::isinf(group.delay_cost(3, 0.0, 5.0)));
  EXPECT_DOUBLE_EQ(group.delay_cost(3, 0.0, 0.0), 0.0);
}

TEST(ServerGroup, FractionalActiveSupported) {
  const ServerGroup group(ServerSpec::opteron2380(), 10);
  // Relaxed optimization uses fractional counts.
  EXPECT_NEAR(group.power_kw(3, 2.5, 0.0), 2.5 * 0.140, 1e-12);
}

}  // namespace
}  // namespace coca::dc

// Tests for the synthetic workload generators (the Fig. 1 substitutes) and
// the trace transforms used by the sensitivity studies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"
#include "workload/fiu_like.hpp"
#include "workload/msr_like.hpp"
#include "workload/transforms.hpp"

namespace coca::workload {
namespace {

TEST(FiuLike, SizePeakAndPositivity) {
  const Trace t = make_fiu_like_trace();
  EXPECT_EQ(t.size(), kHoursPerYear);
  EXPECT_NEAR(t.peak(), 1.1e6, 1.0);
  for (std::size_t i = 0; i < t.size(); ++i) ASSERT_GE(t[i], 0.0);
}

TEST(FiuLike, DeterministicPerSeed) {
  const Trace a = make_fiu_like_trace();
  const Trace b = make_fiu_like_trace();
  FiuLikeConfig other;
  other.seed = 999;
  const Trace c = make_fiu_like_trace(other);
  EXPECT_DOUBLE_EQ(a[1234], b[1234]);
  EXPECT_NE(a[1234], c[1234]);
}

TEST(FiuLike, StrongDiurnalCycle) {
  const Trace t = make_fiu_like_trace();
  EXPECT_GT(util::autocorrelation(t.values(), kHoursPerDay), 0.5);
}

TEST(FiuLike, AfternoonBusierThanNight) {
  const Trace t = make_fiu_like_trace();
  util::RunningStats night, afternoon;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::size_t hour = i % 24;
    if (hour == 4) night.add(t[i]);
    if (hour == 15) afternoon.add(t[i]);
  }
  EXPECT_GT(afternoon.mean(), 1.5 * night.mean());
}

TEST(FiuLike, WeekendsQuieterThanWeekdays) {
  const Trace t = make_fiu_like_trace();
  util::RunningStats weekday, weekend;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::size_t day = (i / 24) % 7;
    (day >= 5 ? weekend : weekday).add(t[i]);
  }
  EXPECT_LT(weekend.mean(), weekday.mean());
}

TEST(FiuLike, LateJulySurgePresent) {
  // The paper's trace "exhibits a significant increase around late July".
  const Trace t = make_fiu_like_trace();
  util::RunningStats july, june;
  for (std::size_t i = 4800; i < 5100; ++i) july.add(t[i]);
  for (std::size_t i = 3700; i < 4000; ++i) june.add(t[i]);
  EXPECT_GT(july.mean(), 1.25 * june.mean());
}

TEST(FiuLike, ShortHorizonSupported) {
  FiuLikeConfig config;
  config.hours = 100;
  const Trace t = make_fiu_like_trace(config);
  EXPECT_EQ(t.size(), 100u);
}

TEST(MsrLike, WeekShapeAndPeak) {
  const Trace week = make_msr_like_week();
  EXPECT_EQ(week.size(), kHoursPerWeek);
  EXPECT_NEAR(week.peak(), 1.1e6, 1.0);
}

TEST(MsrLike, BusinessHoursPlateauOnWeekdays) {
  const Trace week = make_msr_like_week();
  util::RunningStats office, night;
  for (std::size_t day = 0; day < 5; ++day) {
    office.add(week[day * 24 + 12]);
    night.add(week[day * 24 + 2]);
  }
  EXPECT_GT(office.mean(), 2.0 * night.mean());
}

TEST(MsrLike, WeekendQuiet) {
  const Trace week = make_msr_like_week();
  util::RunningStats weekday_noon, weekend_noon;
  for (std::size_t day = 0; day < 7; ++day) {
    (day >= 5 ? weekend_noon : weekday_noon).add(week[day * 24 + 13]);
  }
  EXPECT_LT(weekend_noon.mean(), weekday_noon.mean());
}

TEST(MsrLike, YearRepeatsWeekWithBoundedNoise) {
  const MsrLikeConfig config;
  const Trace week = make_msr_like_week(config);
  const Trace year = make_msr_like_year(config, 0.4, kHoursPerYear, 5);
  EXPECT_EQ(year.size(), kHoursPerYear);
  // The noisy year is renormalized to the configured peak, so compare
  // against the base week up to one global scale factor.
  double max_ratio = 0.0;
  double min_ratio = 1e18;
  for (std::size_t t = 0; t < year.size(); ++t) {
    const double base = week[t % kHoursPerWeek];
    if (base <= 0.0) continue;
    const double ratio = year[t] / base;
    max_ratio = std::max(max_ratio, ratio);
    min_ratio = std::min(min_ratio, ratio);
  }
  // Ratios span at most (1.4/0.6) across slots, whatever the global scale.
  EXPECT_LT(max_ratio / min_ratio, 1.4 / 0.6 + 1e-6);
}

TEST(MsrLike, ZeroNoiseYearIsExactRepetition) {
  const MsrLikeConfig config;
  const Trace week = make_msr_like_week(config);
  const Trace year = make_msr_like_year(config, 0.0, 2 * kHoursPerWeek, 5);
  for (std::size_t t = 0; t < year.size(); ++t) {
    EXPECT_NEAR(year[t], week[t % kHoursPerWeek], 1e-6 * week.peak());
  }
}

TEST(MsrLike, RejectsBadNoise) {
  EXPECT_THROW(make_msr_like_year({}, 1.0), std::invalid_argument);
  EXPECT_THROW(make_msr_like_year({}, -0.1), std::invalid_argument);
}

TEST(Transforms, OverestimateScalesUniformly) {
  const Trace t("t", {10.0, 20.0});
  const Trace o = overestimate(t, 1.2);
  EXPECT_DOUBLE_EQ(o[0], 12.0);
  EXPECT_DOUBLE_EQ(o[1], 24.0);
  EXPECT_THROW(overestimate(t, 0.9), std::invalid_argument);
}

TEST(Transforms, PredictionErrorBoundedAndDeterministic) {
  const Trace t("t", std::vector<double>(1000, 100.0));
  const Trace noisy = with_prediction_error(t, 0.2, 3);
  const Trace noisy2 = with_prediction_error(t, 0.2, 3);
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    ASSERT_GE(noisy[i], 80.0 - 1e-9);
    ASSERT_LE(noisy[i], 120.0 + 1e-9);
    ASSERT_DOUBLE_EQ(noisy[i], noisy2[i]);
  }
  EXPECT_THROW(with_prediction_error(t, 1.5, 3), std::invalid_argument);
}

}  // namespace
}  // namespace coca::workload

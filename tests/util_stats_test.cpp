// Tests for util statistics: Welford moments, merging, summaries,
// correlations.

#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace coca::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.7) * 10 + i * 0.01;
    all.add(x);
    (i < 37 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Summarize, EmptySample) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summarize, PercentilesOfRamp) {
  std::vector<double> ramp(101);
  for (int i = 0; i <= 100; ++i) ramp[i] = static_cast<double>(i);
  const Summary s = summarize(ramp);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.0);
}

TEST(PercentileSorted, InterpolatesBetweenPoints) {
  const std::vector<double> sorted = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 10.0);
}

TEST(MeanSum, Basics) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_of(xs), 2.0);
  EXPECT_DOUBLE_EQ(sum_of(xs), 6.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Correlation, PerfectPositiveAndNegative) {
  const std::vector<double> a = {1, 2, 3, 4, 5};
  const std::vector<double> b = {2, 4, 6, 8, 10};
  std::vector<double> c = {10, 8, 6, 4, 2};
  EXPECT_NEAR(correlation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(correlation(a, c), -1.0, 1e-12);
}

TEST(Correlation, DegenerateCases) {
  const std::vector<double> constant = {3, 3, 3, 3};
  const std::vector<double> ramp = {1, 2, 3, 4};
  EXPECT_EQ(correlation(constant, ramp), 0.0);
  EXPECT_EQ(correlation(ramp, std::vector<double>{1.0}), 0.0);
}

TEST(Autocorrelation, PeriodicSignal) {
  std::vector<double> signal(240);
  for (int i = 0; i < 240; ++i) signal[i] = std::sin(2 * 3.14159265 * i / 24.0);
  EXPECT_GT(autocorrelation(signal, 24), 0.95);
  EXPECT_LT(autocorrelation(signal, 12), -0.95);
}

}  // namespace
}  // namespace coca::util

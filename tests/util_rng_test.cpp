// Tests for util::Rng: determinism, distribution moments, stream splitting.

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/stats.hpp"

namespace coca::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 5);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(77);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.005);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.002);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 9.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 9.0);
  }
}

TEST(Rng, UniformIndexCoversAllValuesUnbiased) {
  Rng rng(8);
  std::vector<int> counts(7, 0);
  const int draws = 140000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, draws / 7.0, 600.0);
}

TEST(Rng, UniformIndexEdgeCases) {
  Rng rng(9);
  EXPECT_EQ(rng.uniform_index(0), 0u);
  EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(12);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.01);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(14);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanAndPositivity) {
  Rng rng(15);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.exponential(2.5);
    ASSERT_GT(x, 0.0);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 2.5, 0.05);
  // Exponential: stddev == mean.
  EXPECT_NEAR(stats.stddev(), 2.5, 0.08);
}

TEST(Rng, LognormalMedian) {
  Rng rng(20);
  std::vector<double> samples;
  for (int i = 0; i < 100001; ++i) samples.push_back(rng.lognormal(1.0, 0.5));
  std::sort(samples.begin(), samples.end());
  // Median of lognormal(mu, sigma) is exp(mu).
  EXPECT_NEAR(samples[samples.size() / 2], std::exp(1.0), 0.05);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng base(42);
  Rng s1 = base.split(1);
  Rng s2 = base.split(2);
  Rng s1_again = base.split(1);
  int equal12 = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto a = s1.next_u64();
    const auto b = s2.next_u64();
    EXPECT_EQ(a, s1_again.next_u64());
    equal12 += a == b;
  }
  EXPECT_LT(equal12, 5);
}

}  // namespace
}  // namespace coca::util

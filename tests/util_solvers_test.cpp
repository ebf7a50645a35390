// Tests for the scalar solver: bisection, the workhorse of every dual
// problem in the repository.

#include "util/solvers.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace coca::util {
namespace {

TEST(Bisect, LinearRoot) {
  const auto r = bisect([](double x) { return 2.0 * x - 3.0; }, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 1.5, 1e-9);
}

TEST(Bisect, DecreasingFunction) {
  const auto r = bisect([](double x) { return 5.0 - x; }, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 5.0, 1e-9);
}

TEST(Bisect, NonlinearRoot) {
  const auto r = bisect([](double x) { return std::exp(x) - 7.0; }, 0.0, 5.0);
  EXPECT_NEAR(r.x, std::log(7.0), 1e-8);
}

TEST(Bisect, RootAtEndpoint) {
  const auto r = bisect([](double x) { return x; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
}

TEST(Bisect, NoSignChangeReturnsClosestEndpoint) {
  const auto r = bisect([](double x) { return x + 10.0; }, 0.0, 1.0);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.x, 0.0);  // |f(0)| = 10 < |f(1)| = 11
}

TEST(Bisect, RespectsFTolEarlyStop) {
  BisectionOptions options;
  options.f_tol = 0.5;
  int evals = 0;
  const auto r = bisect(
      [&](double x) {
        ++evals;
        return x - 2.0;
      },
      0.0, 4.0, options);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(std::abs(r.fx), 0.5);
  EXPECT_LT(evals, 10);
}

TEST(Bisect, StepFunctionConvergesToJump) {
  // Discontinuous monotone function: bisection pins the jump location.
  const auto r = bisect([](double x) { return x < 2.5 ? -1.0 : 1.0; }, 0.0,
                        10.0);
  EXPECT_NEAR(r.x, 2.5, 1e-6);
}

}  // namespace
}  // namespace coca::util

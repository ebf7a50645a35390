#pragma once
// Scalar root-finding shared by the optimization layer: bisection on
// monotone functions.  It is the only numeric primitive the whole
// optimization stack needs — every dual problem in this repository reduces
// to a monotone scalar equation.

#include <functional>

namespace coca::util {

struct BisectionResult {
  double x = 0.0;       ///< located point
  double fx = 0.0;      ///< f(x) at the located point
  int iterations = 0;   ///< iterations used
  bool converged = false;
};

struct BisectionOptions {
  double x_tol = 1e-10;    ///< absolute tolerance on the bracket width
  double f_tol = 1e-12;    ///< stop early if |f(x)| falls below this
  int max_iterations = 200;
};

/// Find x in [lo, hi] with f(x) ~= 0 for a monotone (either direction) f.
/// Requires f(lo) and f(hi) to bracket zero; if both have the same sign the
/// closer endpoint is returned with converged=false.
BisectionResult bisect(const std::function<double(double)>& f, double lo,
                       double hi, const BisectionOptions& options = {});

}  // namespace coca::util

#include "util/solvers.hpp"

#include <cmath>

namespace coca::util {

BisectionResult bisect(const std::function<double(double)>& f, double lo,
                       double hi, const BisectionOptions& options) {
  BisectionResult result;
  double flo = f(lo);
  double fhi = f(hi);
  if (std::abs(flo) <= options.f_tol) {
    return {lo, flo, 0, true};
  }
  if (std::abs(fhi) <= options.f_tol) {
    return {hi, fhi, 0, true};
  }
  if (flo * fhi > 0.0) {
    // No sign change: report the endpoint with the smaller magnitude.
    if (std::abs(flo) < std::abs(fhi)) return {lo, flo, 0, false};
    return {hi, fhi, 0, false};
  }
  double mid = lo;
  double fmid = flo;
  int iter = 0;
  while (iter < options.max_iterations && (hi - lo) > options.x_tol) {
    ++iter;
    mid = 0.5 * (lo + hi);
    fmid = f(mid);
    if (std::abs(fmid) <= options.f_tol) break;
    if (flo * fmid <= 0.0) {
      hi = mid;
      fhi = fmid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  result.x = mid;
  result.fx = fmid;
  result.iterations = iter;
  result.converged = true;
  return result;
}

}  // namespace coca::util

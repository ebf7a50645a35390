#pragma once
// Streaming and batch statistics used by metrics recording and tests.

#include <cstddef>
#include <span>
#include <vector>

namespace coca::util {

/// Numerically stable streaming moments (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch summary of a sample vector.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Compute a Summary over the given samples (copies for the percentile sort).
Summary summarize(std::span<const double> samples);

/// Linear-interpolated percentile of *sorted* samples, q in [0, 1].
double percentile_sorted(std::span<const double> sorted, double q);

/// Mean of samples (0 for empty).
double mean_of(std::span<const double> samples);

/// Sum of samples.
double sum_of(std::span<const double> samples);

/// Pearson correlation of two equal-length series (0 if degenerate).
double correlation(std::span<const double> a, std::span<const double> b);

/// Lag-k autocorrelation of a series (0 if degenerate).
double autocorrelation(std::span<const double> series, std::size_t lag);

}  // namespace coca::util

#pragma once
// Deterministic pseudo-random number generation for all stochastic substrates.
//
// Everything in this repository that is random (trace generators, renewable
// models, GSD proposals, DES arrivals) draws from util::Rng so that every
// experiment is exactly reproducible from a 64-bit seed, independent of the
// standard library implementation.  The core generator is xoshiro256++
// (Blackman & Vigna), seeded through SplitMix64.

#include <array>
#include <cstdint>
#include <cmath>

namespace coca::util {

/// xoshiro256++ generator with SplitMix64 seeding.  Satisfies the
/// UniformRandomBitGenerator requirements so it can also be handed to
/// standard-library distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed (SplitMix64 expansion).
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  std::uint64_t next_u64();
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).  Unbiased (rejection sampling).
  std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (cached second value).
  double normal();
  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Exponential with given mean (mean > 0).
  double exponential(double mean);
  /// Poisson-distributed count with given mean (Knuth for small means,
  /// normal approximation beyond 64 to stay O(1)).
  std::uint64_t poisson(double mean);
  /// Log-normal parameterized by the underlying normal's mu and sigma.
  double lognormal(double mu, double sigma);

  /// Split off an independent stream: deterministically derived from this
  /// generator's state plus the given stream id.  Used to give each
  /// substrate (price, solar, wind, trace, ...) its own stream.
  Rng split(std::uint64_t stream_id) const;

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace coca::util

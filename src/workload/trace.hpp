#pragma once
// Hourly time-series container shared by the workload and energy layers.
//
// A Trace is an immutable-by-convention sequence of nonnegative per-slot
// values (request arrival rates in req/s, renewable power in kW, prices in
// $/kWh, ...) with one value per time slot.  The paper's entire evaluation is
// driven by four such traces: workload, on-site renewables, off-site
// renewables and electricity price.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace coca::workload {

class Trace {
 public:
  Trace() = default;
  /// Throws std::invalid_argument on a negative or non-finite value, or a
  /// slot length that is not finite and positive.
  Trace(std::string name, std::vector<double> values, double slot_hours = 1.0);

  const std::string& name() const { return name_; }
  double slot_hours() const { return slot_hours_; }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double operator[](std::size_t t) const { return values_[t]; }
  std::span<const double> values() const { return values_; }

  double peak() const;
  double mean() const;
  double total() const;  ///< sum of per-slot values

  /// Peak-normalized copy (all values in [0, 1]); name gets a suffix.
  Trace normalized() const;
  /// Copy rescaled so the peak equals `peak_value`.
  Trace scaled_to_peak(double peak_value) const;
  /// Copy rescaled by a constant factor.
  Trace scaled(double factor) const;
  /// Concatenate this trace `times` times.
  Trace repeated(std::size_t times) const;
  /// Sub-range [begin, begin+count).
  Trace slice(std::size_t begin, std::size_t count) const;
  /// Element-wise sum of two equal-length traces.
  static Trace add(const Trace& a, const Trace& b, std::string name);

  /// Serialize as two-column CSV (slot, value).
  std::string to_csv() const;
  /// Parse from two-column CSV produced by to_csv (or any CSV whose second
  /// column is the value).  A malformed value cell throws, as NaN does.
  static Trace from_csv(std::string_view text, std::string name,
                        double slot_hours = 1.0);

 private:
  std::string name_;
  std::vector<double> values_;
  double slot_hours_ = 1.0;
};

/// Hours in the default budgeting period used throughout the reproduction:
/// one non-leap year of hourly slots (the paper's J).
inline constexpr std::size_t kHoursPerYear = 8760;
inline constexpr std::size_t kHoursPerDay = 24;
inline constexpr std::size_t kHoursPerWeek = 168;

}  // namespace coca::workload

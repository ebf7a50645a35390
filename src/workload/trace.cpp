#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/stats.hpp"

namespace coca::workload {

Trace::Trace(std::string name, std::vector<double> values, double slot_hours)
    : name_(std::move(name)), values_(std::move(values)), slot_hours_(slot_hours) {
  if (!std::isfinite(slot_hours_) || slot_hours_ <= 0.0) {
    throw std::invalid_argument("Trace: slot_hours must be finite and positive");
  }
  // util::parse_csv reads a malformed cell as NaN: refuse it here, with
  // infinities, before it can reach lambda(t).
  for (double v : values_) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("Trace: non-finite value in " + name_);
    }
    if (v < 0.0) throw std::invalid_argument("Trace: negative value in " + name_);
  }
}

double Trace::peak() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Trace::mean() const { return util::mean_of(values_); }

double Trace::total() const { return util::sum_of(values_); }

Trace Trace::normalized() const {
  const double p = peak();
  if (p <= 0.0) return Trace(name_ + "/norm", values_, slot_hours_);
  return scaled(1.0 / p);
}

Trace Trace::scaled_to_peak(double peak_value) const {
  const double p = peak();
  if (p <= 0.0) {
    throw std::domain_error("Trace::scaled_to_peak: zero-peak trace " + name_);
  }
  return scaled(peak_value / p);
}

Trace Trace::scaled(double factor) const {
  if (factor < 0.0) throw std::invalid_argument("Trace::scaled: negative factor");
  std::vector<double> out(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) out[i] = values_[i] * factor;
  return Trace(name_, std::move(out), slot_hours_);
}

Trace Trace::repeated(std::size_t times) const {
  std::vector<double> out;
  out.reserve(values_.size() * times);
  for (std::size_t k = 0; k < times; ++k) {
    out.insert(out.end(), values_.begin(), values_.end());
  }
  return Trace(name_, std::move(out), slot_hours_);
}

Trace Trace::slice(std::size_t begin, std::size_t count) const {
  if (begin + count > values_.size()) {
    throw std::out_of_range("Trace::slice: range out of bounds");
  }
  return Trace(name_,
               std::vector<double>(values_.begin() + static_cast<long>(begin),
                                   values_.begin() + static_cast<long>(begin + count)),
               slot_hours_);
}

Trace Trace::add(const Trace& a, const Trace& b, std::string name) {
  if (a.size() != b.size()) throw std::invalid_argument("Trace::add: size mismatch");
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return Trace(std::move(name), std::move(out), a.slot_hours());
}

std::string Trace::to_csv() const {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.header({"slot", "value"});
  for (std::size_t t = 0; t < values_.size(); ++t) {
    csv.row({static_cast<double>(t), values_[t]});
  }
  return out.str();
}

Trace Trace::from_csv(std::string_view text, std::string name, double slot_hours) {
  const util::CsvTable table = util::parse_csv(text);
  if (table.columns.size() < 2) {
    throw std::invalid_argument("Trace::from_csv: need at least two columns");
  }
  std::vector<double> values;
  values.reserve(table.rows.size());
  for (const auto& row : table.rows) values.push_back(row[1]);
  return Trace(std::move(name), std::move(values), slot_hours);
}

}  // namespace coca::workload

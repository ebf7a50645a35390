#include "obs/exposition.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/span.hpp"

namespace coca::obs {

RegistrySnapshot snapshot_registry(const Registry& registry) {
  RegistrySnapshot snap;
  snap.counters = registry.counter_values();
  snap.gauges = registry.gauge_values();
  snap.histograms = registry.histogram_values();
  return snap;
}

void merge_into(RegistrySnapshot& into, const RegistrySnapshot& from) {
  for (const auto& [name, value] : from.counters) {
    into.counters[name] += value;  // exact: integers
  }
  for (const auto& [name, gauge] : from.gauges) {
    // Element-wise max: commutative and associative on doubles, and the
    // right aggregate for this tree's gauges (high-water marks).
    GaugeSnapshot& mine = into.gauges[name];
    mine.value = std::max(mine.value, gauge.value);
    mine.max = std::max(mine.max, gauge.max);
  }
  for (const auto& [name, hist] : from.histograms) {
    if (hist.count == 0) {
      into.histograms.try_emplace(name);  // keep the family visible
      continue;
    }
    HistogramSnapshot& mine = into.histograms[name];
    if (mine.count == 0) {
      mine = hist;
      continue;
    }
    mine.count += hist.count;
    mine.sum += hist.sum;
    mine.min = std::min(mine.min, hist.min);
    mine.max = std::max(mine.max, hist.max);
  }
}

RegistrySnapshot merge_snapshots(const std::vector<RegistrySnapshot>& parts) {
  // Strict index order: histogram sums are floating-point, so the fold
  // order is part of the determinism contract (see header).
  RegistrySnapshot merged;
  for (const RegistrySnapshot& part : parts) merge_into(merged, part);
  return merged;
}

bool is_machine_instrument(std::string_view name) {
  // The whole "pool." family is scheduler-shaped: parallel_for runs inline
  // (submitting nothing) at one worker, so even its task *counts* depend on
  // the thread count.
  return name.ends_with("_ms") || name.ends_with("_ns") ||
         name.starts_with("pool.") ||
         name.find("high_water") != std::string_view::npos ||
         name.find("timing") != std::string_view::npos ||
         name.ends_with("queue_depth") || name.ends_with(".threads");
}

std::string prometheus_name(std::string_view name) {
  std::string out = "coca_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  return out;
}

namespace {

struct Family {
  const char* type = "gauge";
  /// Rendered "sample value\n" lines, in append order.
  std::string samples;
};

template <typename Number>
void add_sample(std::map<std::string, Family>& families, std::string family,
                const char* type, std::string_view sample, Number value) {
  Family& entry = families[std::move(family)];
  entry.type = type;
  entry.samples += sample;
  entry.samples += ' ';
  append_json_number(entry.samples, value);
  entry.samples += '\n';
}

}  // namespace

std::string to_prometheus_text(const RegistrySnapshot& snapshot,
                               const ExpositionOptions& options) {
  // Families collect into a sorted map first, then render — exposition
  // order is a pure function of the instrument names.
  std::map<std::string, Family> families;
  // Masked instruments are *omitted*, not zeroed: whether a scheduler-side
  // instrument even exists depends on which code paths ran (the pool records
  // nothing when parallel_for inlines), so only absence keeps the masked
  // text byte-identical across thread counts.
  for (const auto& [name, value] : snapshot.counters) {
    if (options.mask_timing && is_machine_instrument(name)) continue;
    const std::string family = prometheus_name(name) + "_total";
    add_sample(families, family, "counter", family, value);
  }
  for (const auto& [name, gauge] : snapshot.gauges) {
    if (options.mask_timing && is_machine_instrument(name)) continue;
    const std::string family = prometheus_name(name);
    add_sample(families, family, "gauge", family, gauge.value);
    const std::string family_max = family + "_max";
    add_sample(families, family_max, "gauge", family_max, gauge.max);
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    // Count/sum render as a (quantile-free) summary; min/max, which
    // Prometheus summaries do not carry, become sibling gauge families.
    if (options.mask_timing && is_machine_instrument(name)) continue;
    const std::string family = prometheus_name(name);
    add_sample(families, family, "summary", family + "_count", hist.count);
    add_sample(families, family, "summary", family + "_sum", hist.sum);
    const std::string family_min = family + "_min";
    add_sample(families, family_min, "gauge", family_min, hist.min);
    const std::string family_max = family + "_max";
    add_sample(families, family_max, "gauge", family_max, hist.max);
  }

  std::string out;
  out.reserve(families.size() * 64);
  for (const auto& [name, family] : families) {
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += family.type;
    out += '\n';
    out += family.samples;
  }
  return out;
}

void append_prometheus_tail_histogram(std::string& out, std::string_view name,
                                      const TailHistogram& histogram) {
  const std::string base = prometheus_name(name);
  out += "# TYPE ";
  out += base;
  out += " histogram\n";
  const std::vector<std::uint64_t>& counts = histogram.counts();
  std::uint64_t cumulative = 0;
  // Finite bins: skip empties (a log-linear grid has thousands), keep the
  // cumulative invariant.  The overflow bin is folded into le="+Inf".
  for (std::size_t i = 0; i + 1 < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    cumulative += counts[i];
    out += base;
    out += "_bucket{le=\"";
    append_json_number(out, histogram.upper_edge(i));
    out += "\"} ";
    append_json_number(out, static_cast<std::int64_t>(cumulative));
    out += '\n';
  }
  out += base;
  out += "_bucket{le=\"+Inf\"} ";
  append_json_number(out, static_cast<std::int64_t>(histogram.total()));
  out += '\n';
  out += base;
  out += "_count ";
  append_json_number(out, static_cast<std::int64_t>(histogram.total()));
  out += '\n';
}

Exporter::Exporter(Options options) : options_(std::move(options)) {
  if (options_.cadence_slots == 0) options_.cadence_slots = 1;
}

void Exporter::on_slot(std::size_t t, const Registry& registry) {
  if (t % options_.cadence_slots != 0) return;
  const ScopedSpan span("exposition_write");
  write_now(registry);
}

void Exporter::write_now(const Registry& registry) {
  last_text_ =
      to_prometheus_text(snapshot_registry(registry), options_.exposition);
  ++writes_;
  if (!options_.path.empty()) {
    // Whole-file rewrite: the target always holds one complete exposition
    // (scrape semantics), never a partial append.
    std::ofstream out(options_.path, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("Exporter: cannot open " + options_.path);
    }
    out << last_text_;
  }
}

}  // namespace coca::obs

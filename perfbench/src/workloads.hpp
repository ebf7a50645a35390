#pragma once
// The four benchmark workloads (README.md has the shapes and the reasons).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< operations: slots, or DES requests
  std::uint64_t failed = 0;     ///< shed / check-breaking slots, stuck requests
  /// The metrics of the result line: every gated end-to-end metric, or with
  /// --trace 1 every per-layer metric, in the order BENCHMARK.json lists them.
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line: the workload's own
  /// figures by name and unit, host calibration, check summaries, errors.
  std::vector<std::string> notes;
};

/// Names accepted by --workload.
const std::vector<std::string>& workload_names();

/// Set up, run and check one workload (the name must be one of
/// workload_names()).
Outcome run_workload(const Options& options);

}  // namespace perfbench

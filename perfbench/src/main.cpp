// coca_perfbench: one measuring process of the repository benchmark
// (README.md in this directory documents workloads, metrics and how to run
// it).
//
//   coca_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// One invocation is one measuring process; perfbench/run.py runs several
// and reports their medians.
//
// Prints human-readable figures, then, as the last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit code 0 when every check passed, 1 when a check failed (the result line
// is still printed), 2 on a usage or runtime error (no result line).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "coca_perfbench: " << problem << "\nusage: coca_perfbench "
            << "--workload <";
  const auto& names = perfbench::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cerr << (i ? "|" : "") << names[i];
  }
  std::cerr << "> [--seed N] [--seconds S] [--trace 0|1]\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return value;
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_count(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      const double seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(seconds > 0.0) ||
          seconds > 600.0) {
        usage("--seconds must be a number in (0, 600], got '" + value + "'");
      }
      options.seconds = seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    usage("unknown workload '" + options.workload + "'");
  }

  perfbench::Outcome outcome;
  try {
    outcome = perfbench::run_workload(options);
  } catch (const std::exception& error) {
    std::cerr << "coca_perfbench: " << error.what() << '\n';
    return 2;
  }

  std::cout << "workload " << options.workload << ", seed " << options.seed
            << ", " << options.seconds << " s, trace "
            << (options.trace ? 1 : 0) << '\n';
  for (const std::string& note : outcome.notes) std::cout << note << '\n';
  std::string metrics;
  for (const perfbench::Metric& metric : outcome.metrics) {
    if (!std::isfinite(metric.value)) {
      std::cerr << "coca_perfbench: metric " << metric.name
                << " is not finite\n";
      return 2;
    }
    std::cout << metric.name << " = " << json_number(metric.value) << ' '
              << metric.unit << '\n';
    metrics += (metrics.empty() ? "" : ", ");
    metrics += '"' + metric.name + "\": {\"value\": " +
               json_number(metric.value) + ", \"unit\": \"" + metric.unit +
               "\"}";
  }
  std::cout << "{\"correct\": " << (outcome.correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return outcome.correct ? 0 : 1;
}

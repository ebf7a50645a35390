#include "obs/bench_report.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace coca::obs {

std::string BenchReport::to_json() const {
  // Plain appends throughout (no `const char* + std::string` temporaries):
  // keeps GCC 12's -Wrestrict false positive (PR105329) out of a tree that
  // builds with -Werror in CI.
  std::string out = "{\n  \"schema\": \"";
  out += kBenchSchema;
  out += "\",\n  \"suite\": \"";
  append_json_escaped(out, suite_);
  out += "\",\n  \"results\": [";
  bool first_result = true;
  for (const auto& result : results_) {
    out += first_result ? "\n" : ",\n";
    first_result = false;
    out += "    {\"name\": \"";
    append_json_escaped(out, result.name);
    out += "\", \"wall_s\": ";
    append_json_number(out, result.wall_s);
    out += ", \"evals_per_sec\": ";
    append_json_number(out, result.evals_per_sec);
    out += ", \"objective\": ";
    append_json_number(out, result.objective);
    out += ", \"meta\": {";
    bool first_meta = true;
    for (const auto& [key, value] : result.meta) {
      if (!first_meta) out += ", ";
      first_meta = false;
      out += '"';
      append_json_escaped(out, key);
      out += "\": ";
      append_json_number(out, value);
    }
    out += "}}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string BenchReport::default_path() const {
  std::string dir = ".";
  if (const char* env = std::getenv("COCA_BENCH_JSON_DIR")) {
    if (env[0] != '\0') dir = env;
  }
  return dir + "/BENCH_" + suite_ + ".json";
}

std::string BenchReport::write(const std::string& path) const {
  const std::string target = path.empty() ? default_path() : path;
  std::ofstream out(target);
  if (!out) {
    throw std::runtime_error("BenchReport: cannot open " + target);
  }
  out << to_json();
  return target;
}

BenchReport BenchReport::parse(const std::string& json) {
  const JsonValue document = parse_json(json);
  if (document.at("schema").as_string() != kBenchSchema) {
    throw std::runtime_error("BenchReport: unknown schema '" +
                             document.at("schema").as_string() + "'");
  }
  BenchReport report(document.at("suite").as_string());
  for (const auto& entry : document.at("results").as_array()) {
    BenchResult result;
    result.name = entry.at("name").as_string();
    result.wall_s = entry.at("wall_s").as_double();
    result.evals_per_sec = entry.at("evals_per_sec").as_double();
    result.objective = entry.at("objective").as_double();
    for (const auto& [key, value] : entry.at("meta").as_object()) {
      result.meta.emplace(key, value.as_double());
    }
    report.add(std::move(result));
  }
  return report;
}

std::vector<std::string> BenchReport::validate() const {
  std::vector<std::string> problems;
  const auto flag = [&problems](std::string message) {
    problems.push_back(std::move(message));
  };
  if (suite_.empty()) flag("empty suite name");
  if (results_.empty()) flag("no results");
  std::set<std::string> names;
  for (const auto& result : results_) {
    std::string where = "result '";
    where += result.name;
    where += "'";
    if (result.name.empty()) flag("empty result name");
    if (!names.insert(result.name).second) {
      std::string message = "duplicate result name '";
      message += result.name;
      message += "'";
      flag(std::move(message));
    }
    const auto check_finite = [&flag, &where](const char* field,
                                              double value) {
      if (!std::isfinite(value)) {
        std::string message = where;
        message += ": non-finite ";
        message += field;
        flag(std::move(message));
      }
    };
    check_finite("wall_s", result.wall_s);
    check_finite("evals_per_sec", result.evals_per_sec);
    check_finite("objective", result.objective);
    for (const auto& [key, value] : result.meta) {
      if (key.empty()) {
        std::string message = where;
        message += ": empty meta key";
        flag(std::move(message));
      }
      std::string field = "meta '";
      field += key;
      field += "'";
      check_finite(field.c_str(), value);
    }
  }
  return problems;
}

BenchReport BenchReport::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("BenchReport: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

}  // namespace coca::obs

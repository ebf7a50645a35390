#include "obs/trace.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace coca::obs {

void append_json_line(std::string& out, const SlotTrace& slot) {
  // Fixed key order = the schema; golden tests compare lines byte-for-byte.
  // Plain appends only (no `const char* + std::string` temporaries), which
  // keeps GCC 12's -Wrestrict false positive (PR105329) out of -Werror CI.
  const auto field = [&out](const char* key, auto value) {
    out += key;
    append_json_number(out, value);
  };
  field("{\"t\":", static_cast<std::int64_t>(slot.t));
  field(",\"lambda\":", slot.lambda);
  field(",\"price\":", slot.price);
  field(",\"onsite_kw\":", slot.onsite_kw);
  field(",\"offsite_kwh\":", slot.offsite_kwh);
  field(",\"q\":", slot.q);
  field(",\"V\":", slot.v);
  field(",\"active_servers\":", slot.active_servers);
  field(",\"mean_speed_level\":", slot.mean_speed_level);
  out += ",\"feasible\":";
  out += slot.feasible ? "true" : "false";
  field(",\"brown_kwh\":", slot.brown_kwh);
  field(",\"electricity_cost\":", slot.electricity_cost);
  field(",\"delay_cost\":", slot.delay_cost);
  field(",\"rec_cost\":", slot.rec_cost);
  field(",\"total_cost\":", slot.total_cost);
  field(",\"evaluations\":", slot.evaluations);
  field(",\"acceptance_rate\":", slot.acceptance_rate);
  field(",\"chains\":", slot.chains);
  field(",\"winning_chain\":", slot.winning_chain);
  if (slot.fault_active) {
    // Fault fields appear only on perturbed slots, keeping fault-free
    // traces byte-identical to the pre-fault schema.
    out += ",\"degraded\":";
    out += slot.degraded ? "true" : "false";
    field(",\"stale_inputs\":", slot.stale_inputs);
    out += ",\"fallback\":";
    out += slot.fallback ? "true" : "false";
    field(",\"shed_lambda\":", slot.shed_lambda);
  }
  field(",\"solve_ms\":", slot.solve_ms);
  out += '}';
}

std::string to_json_line(const SlotTrace& slot) {
  std::string out;
  out.reserve(320);
  append_json_line(out, slot);
  return out;
}

void SlotTraceWriter::write_jsonl(std::ostream& out) const {
  std::string rendered;
  for (const auto& slot : slots_) {
    rendered.clear();
    append_json_line(rendered, slot);
    rendered += '\n';
    out << rendered;
  }
  for (const auto& line : lines_) out << line << '\n';
  if (!footer_.empty()) out << footer_ << '\n';
}

std::string SlotTraceWriter::to_jsonl() const {
  std::ostringstream out;
  write_jsonl(out);
  return out.str();
}

void SlotTraceWriter::write_jsonl_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("SlotTraceWriter: cannot open " + path);
  }
  write_jsonl(out);
}

namespace {

void append_masked_line(std::string& out, std::string_view line) {
  // Every key whose value is wall-clock derived; everything else in a trace
  // (and in the span-profile footer) is deterministic.
  static constexpr std::string_view kKeys[] = {
      "\"solve_ms\":", "\"total_ms\":", "\"self_ms\":",
      "\"value_ms\":", "\"limit_ms\":"};
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t hit = std::string_view::npos;
    std::size_t key_size = 0;
    for (const auto key : kKeys) {
      const std::size_t candidate = line.find(key, pos);
      if (candidate < hit) {
        hit = candidate;
        key_size = key.size();
      }
    }
    if (hit == std::string_view::npos) {
      out.append(line, pos, std::string_view::npos);
      return;
    }
    const std::size_t value_start = hit + key_size;
    std::size_t value_end = value_start;
    while (value_end < line.size() && line[value_end] != ',' &&
           line[value_end] != '}') {
      ++value_end;
    }
    out.append(line, pos, value_start - pos);
    out += '0';
    pos = value_end;
  }
}

}  // namespace

std::string mask_timing_fields(const std::string& jsonl) {
  // coca-health-v1 timing rules (obs/health.hpp) fire off wall-clock
  // readings, so whether such an event even *exists* varies run to run —
  // zeroing its values is not enough.  Those lines are dropped whole; on
  // every other line the timing values are zeroed in place (the line's
  // existence is deterministic, only its readings are not).
  std::string out;
  out.reserve(jsonl.size());
  std::size_t line_start = 0;
  while (line_start < jsonl.size()) {
    std::size_t line_end = jsonl.find('\n', line_start);
    const bool has_newline = line_end != std::string::npos;
    if (!has_newline) line_end = jsonl.size();
    const std::string_view line(jsonl.data() + line_start,
                                line_end - line_start);
    const bool timing_health_event =
        line.find("\"rule\":\"") != std::string_view::npos &&
        line.find("\"value_ms\":") != std::string_view::npos;
    if (!timing_health_event) {
      append_masked_line(out, line);
      if (has_newline) out += '\n';
    }
    if (!has_newline) break;
    line_start = line_end + 1;
  }
  return out;
}

}  // namespace coca::obs

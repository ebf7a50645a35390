#include "obs/health.hpp"

#include <cmath>
#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace coca::obs {

const char* to_string(HealthLevel level) {
  switch (level) {
    case HealthLevel::kInfo:
      return "info";
    case HealthLevel::kWarn:
      return "warn";
    case HealthLevel::kCritical:
      return "critical";
  }
  return "info";
}

void append_json_line(std::string& out, const HealthEvent& event) {
  // Fixed key order = the coca-health-v1 schema; golden comparisons rely on
  // byte-stable rendering.  Timing rules route their numbers through the
  // *_ms keys so obs::mask_timing_fields drops the whole event with the
  // other wall-clock readings (a timing rule's firing is itself
  // wall-clock-dependent, so masked comparisons must not see the line).
  out += "{\"t\":";
  append_json_number(out, static_cast<std::int64_t>(event.t));
  out += ",\"rule\":\"";
  append_json_escaped(out, event.rule);
  out += "\",\"level\":\"";
  out += to_string(event.level);
  out += event.timing ? "\",\"value_ms\":" : "\",\"value\":";
  append_json_number(out, event.value);
  out += event.timing ? ",\"limit_ms\":" : ",\"limit\":";
  append_json_number(out, event.limit);
  out += ",\"expected\":";
  out += event.expected ? "true" : "false";
  if (!event.detail.empty()) {
    out += ",\"detail\":\"";
    append_json_escaped(out, event.detail);
    out += '"';
  }
  out += '}';
}

std::string to_json_line(const HealthEvent& event) {
  std::string out;
  out.reserve(160);
  append_json_line(out, event);
  return out;
}

double deterministic_queue_bound(double v, std::size_t t,
                                 const QueueBoundParams& params) {
  // Theorem 2(a) structure: sum the per-slot Lyapunov drift bound
  // B = b_max^2/2 plus the penalty V*g_max over the T slots elapsed and
  // telescope: q(T)^2/2 <= T*(B + V*g_max), i.e.
  //   q(T) <= sqrt(2*T*(b_max^2/2 + V*g_max)).
  const double slots = static_cast<double>(t + 1);
  const double drift =
      0.5 * params.max_increment_kwh * params.max_increment_kwh;
  return std::sqrt(2.0 * slots * (drift + v * params.max_slot_cost));
}

double HealthMonitor::Ewma::z(double x) const {
  if (n == 0) return 0.0;
  // Relative variance floor: periodic workloads legitimately idle near-zero
  // variance, and a hard zero would turn the next ordinary fluctuation into
  // an infinite score.
  const double floor = 1e-6 * mean * mean + 1e-12;
  const double sigma = std::sqrt(var > floor ? var : floor);
  return (x - mean) / sigma;
}

void HealthMonitor::Ewma::update(double x, double decay) {
  if (n == 0) {
    mean = x;
    var = 0.0;
  } else {
    const double delta = x - mean;
    mean += decay * delta;
    // West-style EWMA variance: decays old spread, folds in the new
    // squared deviation measured against the *updated* mean.
    var = (1.0 - decay) * (var + decay * delta * delta);
  }
  ++n;
}

HealthMonitor::HealthMonitor(const HealthConfig& config, TraceSink* sink)
    : config_(config), sink_(sink) {}

void HealthMonitor::emit(std::size_t t, const char* rule, HealthLevel level,
                         double value, double limit, bool expected,
                         bool timing, std::string detail) {
  HealthEvent event;
  event.t = t;
  event.rule = rule;
  event.level = level;
  event.value = value;
  event.limit = limit;
  event.expected = expected;
  event.timing = timing;
  event.detail = std::move(detail);
  switch (level) {
    case HealthLevel::kInfo:
      ++stats_.info;
      // Timing rules fire off wall-clock readings, so their very count is
      // machine state: route it to a timing-classed instrument that
      // mask_timing omits (a deterministic events_info family must not
      // appear only because a solve ran slow once).
      count(timing ? "health.events_timing" : "health.events_info");
      break;
    case HealthLevel::kWarn:
      ++stats_.warn;
      count("health.events_warn");
      break;
    case HealthLevel::kCritical:
      ++stats_.critical;
      count("health.events_critical");
      break;
  }
  ++stats_.by_rule[event.rule];
  if (sink_ != nullptr) {
    line_.clear();
    append_json_line(line_, event);
    sink_->record_line(line_);
  }
  events_.push_back(std::move(event));
}

void HealthMonitor::on_slot(const SlotTrace& slot,
                            const SlotHealthContext& context) {
  const ScopedSpan health_span("health_check");
  const std::size_t t = slot.t;
  const bool faulted = slot.fault_active;

  // --- queue_bound: q(t) against the Theorem 2(a) deterministic bound.
  if (config_.queue_bound.max_increment_kwh > 0.0) {
    const double bound = deterministic_queue_bound(slot.v, t, config_.queue_bound);
    if (slot.q > bound) {
      emit(t, "queue_bound", HealthLevel::kCritical, slot.q, bound, false,
           false, "carbon-deficit queue exceeds the deterministic bound");
    } else if (slot.q > config_.queue_bound_warn_fraction * bound) {
      emit(t, "queue_bound", HealthLevel::kWarn, slot.q,
           config_.queue_bound_warn_fraction * bound, false, false,
           "carbon-deficit queue approaching the deterministic bound");
    }
  }

  // --- neutrality_gap: [q - V*zeta]^+ positive and non-decreasing for a
  // full window means the O(1/V) overdraft is not shrinking.
  if (config_.neutrality_zeta_kwh > 0.0) {
    const double gap = slot.q - slot.v * config_.neutrality_zeta_kwh;
    const double positive_gap = gap > 0.0 ? gap : 0.0;
    if (positive_gap > 0.0 && positive_gap >= previous_gap_) {
      ++gap_growth_streak_;
    } else {
      gap_growth_streak_ = 0;
    }
    previous_gap_ = positive_gap;
    if (config_.neutrality_window > 0 &&
        gap_growth_streak_ >= config_.neutrality_window) {
      emit(t, "neutrality_gap", HealthLevel::kWarn, positive_gap,
           static_cast<double>(config_.neutrality_window), false, false,
           "carbon-neutrality gap trending upward");
      gap_growth_streak_ = 0;  // re-arm: one alert per completed window
    }
  }

  // --- cost_anomaly / solve_time_anomaly: prediction-based EWMA z-scores.
  const double slot_cost = slot.total_cost;
  if (config_.cost_z_threshold > 0.0) {
    const double z = cost_.z(slot_cost);
    if (cost_.n >= config_.warmup_slots && z > config_.cost_z_threshold) {
      // A fault-perturbed slot legitimately spikes cost (shed billing,
      // degraded capacity): label it expected instead of paging.
      emit(t, "cost_anomaly",
           faulted ? HealthLevel::kInfo : HealthLevel::kWarn, z,
           config_.cost_z_threshold, faulted, false,
           "per-slot cost spiked against its EWMA envelope");
    }
  }
  cost_.update(slot_cost, config_.ewma_decay);
  if (config_.solve_z_threshold > 0.0) {
    const double z = solve_ms_.z(slot.solve_ms);
    if (solve_ms_.n >= config_.warmup_slots && z > config_.solve_z_threshold) {
      // Timing rule: info only.  Wall-clock readings are machine state, not
      // model state — they must never fail a deterministic gate.
      emit(t, "solve_time_anomaly", HealthLevel::kInfo, slot.solve_ms,
           solve_ms_.mean, false, true,
           "slot solve time spiked against its EWMA envelope");
    }
  }
  solve_ms_.update(slot.solve_ms, config_.ewma_decay);

  // --- shed_rate: load shed above the ceiling.  Expected (labeled, info)
  // when the slot is fault-perturbed: the degraded-mode plane scheduled it.
  if (slot.shed_lambda > 0.0 && slot.lambda > 0.0) {
    const double rate = slot.shed_lambda / slot.lambda;
    if (rate > config_.shed_rate_ceiling) {
      if (faulted) {
        emit(t, "shed_rate", HealthLevel::kInfo, rate,
             config_.shed_rate_ceiling, true, false,
             "load shed under an active fault schedule");
      } else {
        emit(t, "shed_rate", HealthLevel::kCritical, rate,
             config_.shed_rate_ceiling, false, false,
             "load shed with no fault scheduled");
      }
    }
  }

  // --- trace_drop: the async sink discarded records this slot.
  if (static_cast<double>(context.trace_drops) > config_.drop_ceiling) {
    emit(t, "trace_drop", HealthLevel::kWarn,
         static_cast<double>(context.trace_drops), config_.drop_ceiling,
         false, false, "trace records dropped under backpressure");
  }

  // --- checkpoint_staleness: the recovery point is falling behind.
  if (config_.checkpoint_staleness_limit > 0 &&
      context.slots_since_checkpoint > config_.checkpoint_staleness_limit) {
    emit(t, "checkpoint_staleness", HealthLevel::kWarn,
         static_cast<double>(context.slots_since_checkpoint),
         static_cast<double>(config_.checkpoint_staleness_limit), false,
         false, "checkpoint cadence overdue");
  }

  // --- degraded_mode: label every fault-perturbed slot so operators see
  // the schedule executing, at info level (expected, not paged).
  if (faulted) {
    emit(t, "degraded_mode", HealthLevel::kInfo,
         static_cast<double>(slot.stale_inputs), 0.0, true, false,
         slot.fallback ? "deadline fallback actuated"
                       : (slot.degraded ? "slot ran on a degraded fleet"
                                        : "fault-perturbed slot"));
  }
}

}  // namespace coca::obs

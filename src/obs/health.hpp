#pragma once
// Online invariant watchdogs: the runtime half of the guarantees the repo
// otherwise only checks offline in tests and hand-read BENCH JSON.
//
// A HealthMonitor is fed one SlotTrace per slot (sim/simulator wires it next
// to the trace sink) and evaluates a fixed rule set against COCA's own
// theory and the run's operational envelope:
//
//   rule                  level            what it checks
//   --------------------  ---------------  ----------------------------------
//   queue_bound           warn/critical    q(t) against the Theorem 2(a)
//                                          deterministic bound
//                                          sqrt(2*T*(b_max^2/2 + V*g_max))
//   neutrality_gap        warn             [q(t) - V*zeta]^+ positive and
//                                          non-decreasing over a window
//   cost_anomaly          warn             EWMA z-score on per-slot total
//                                          cost
//   solve_time_anomaly    info (timing)    EWMA z-score on solve_ms; the
//                                          event's value_ms/limit_ms fields
//                                          mask away like every other
//                                          wall-clock reading
//   shed_rate             critical         shed lambda / lambda above the
//                                          ceiling
//   trace_drop            warn             obs.trace_dropped counter grew
//                                          faster than the ceiling
//   checkpoint_staleness  warn             slots since the last checkpoint
//                                          above the limit
//   degraded_mode         info (expected)  a fault-perturbed slot ran
//
// Fault-aware suppression: on slots where the trace says fault injection is
// active (`fault_active`), alerts that are the *expected* consequence of the
// scheduled fault (shedding, degraded operation) are emitted at info level
// with `"expected":true` instead of paging — labeled, not spammed.
//
// Events are rendered as `coca-health-v1` JSONL and pushed through the
// existing TraceSink interface (TraceSink::record_line), so the in-memory
// SlotTraceWriter and the backpressured AsyncTraceSink both work unchanged.
// The monitor is strictly read-only with respect to the run: it never feeds
// back into any decision, so attaching one is provably pass-through
// (pinned by tests/obs_health_test.cpp).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace coca::obs {

inline constexpr const char* kHealthSchema = "coca-health-v1";

enum class HealthLevel { kInfo = 0, kWarn = 1, kCritical = 2 };

const char* to_string(HealthLevel level);

struct HealthEvent {
  std::size_t t = 0;
  std::string rule;
  HealthLevel level = HealthLevel::kInfo;
  double value = 0.0;   ///< observed quantity (masked when `timing`)
  double limit = 0.0;   ///< bound/threshold it was checked against
  bool expected = false;  ///< labeled consequence of a scheduled fault
  bool timing = false;    ///< value/limit are wall-clock derived
  std::string detail;
};

/// Append one JSON line (no trailing newline), fixed key order,
/// std::to_chars formatting.  Timing events serialize their value/limit
/// under `value_ms`/`limit_ms`, which obs::mask_timing_fields zeroes
/// alongside solve_ms.
void append_json_line(std::string& out, const HealthEvent& event);

/// The same line, returned as a new string.
std::string to_json_line(const HealthEvent& event);

/// Constants of the Theorem 2(a) deterministic queue bound.  With b_max the
/// largest one-slot queue increment |y - alpha*(f+z)| (kWh) and g_max an
/// upper bound on the per-slot cost ($), Lyapunov drift telescoping gives
///   q(T) <= sqrt(2*T*(b_max^2/2 + V*g_max))
/// for every slot T of a frame — the O(sqrt(V)) violation bound the paper
/// proves.  sim::default_health_config derives both constants from a
/// Scenario's envelope (peak facility energy, max price, the gamma-capped
/// M/G/1/PS occupancy).
struct QueueBoundParams {
  double max_increment_kwh = 0.0;  ///< b_max; 0 disables the rule
  double max_slot_cost = 0.0;      ///< g_max ($)
};

/// Theorem 2(a) bound for slot index t (0-based; T = t+1 slots elapsed).
double deterministic_queue_bound(double v, std::size_t t,
                                 const QueueBoundParams& params);

struct HealthConfig {
  QueueBoundParams queue_bound;    ///< rule on when max_increment_kwh > 0
  /// Fraction of the bound that already warns (criticals fire at 1.0).
  double queue_bound_warn_fraction = 0.9;

  /// Carbon-neutrality gap slack: the gap [q - V*zeta]^+ must not trend
  /// upward.  0 disables the rule.
  double neutrality_zeta_kwh = 0.0;
  std::size_t neutrality_window = 24;  ///< consecutive growing-gap slots

  /// EWMA z-score thresholds; 0 disables the corresponding rule.
  double cost_z_threshold = 10.0;
  double solve_z_threshold = 8.0;  ///< timing rule: info-level events only
  double ewma_decay = 0.1;         ///< weight of the newest observation
  std::size_t warmup_slots = 48;   ///< slots before z-scores are trusted

  /// Shed-rate ceiling (shed lambda / slot lambda); any shedding above it
  /// is critical unless the slot is fault-labeled.  The rule is always on.
  double shed_rate_ceiling = 0.0;

  /// Ceiling on new obs.trace_dropped counts per slot (reads the installed
  /// metrics registry; see set_metrics).  Any excess warns.
  double drop_ceiling = 0.0;

  /// Warn when more slots than this passed since the last checkpoint while
  /// checkpointing is active.  0 disables the rule.
  std::int64_t checkpoint_staleness_limit = 0;
};

/// Per-slot context the trace record does not carry (sim/simulator fills it
/// in; defaults describe a clean, checkpoint-free run).
struct SlotHealthContext {
  /// Slots since the last checkpoint blob was taken; -1 when checkpointing
  /// is inactive this run.
  std::int64_t slots_since_checkpoint = -1;
  /// New obs.trace_dropped counts attributable to this slot.  The simulator
  /// computes the delta from the installed registry; callers replaying
  /// traces offline can pass it directly.
  std::int64_t trace_drops = 0;
};

struct HealthStats {
  std::int64_t info = 0;
  std::int64_t warn = 0;
  std::int64_t critical = 0;
  std::map<std::string, std::int64_t> by_rule;

  std::int64_t total() const { return info + warn + critical; }
};

class HealthMonitor {
 public:
  /// `sink` receives one rendered coca-health-v1 line per event (may be
  /// null: events are still retained and counted).  The sink must outlive
  /// the monitor's last on_slot call.
  explicit HealthMonitor(const HealthConfig& config, TraceSink* sink = nullptr);

  /// Evaluate every rule against one slot record.  Called once per slot, in
  /// slot order, by the (serial) simulator loop.
  void on_slot(const SlotTrace& slot, const SlotHealthContext& context = {});

  const HealthConfig& config() const { return config_; }
  const HealthStats& stats() const { return stats_; }
  /// Every event emitted so far, in emission order (tests, benches).
  const std::vector<HealthEvent>& events() const { return events_; }

 private:
  /// Prediction-based exponentially weighted mean/variance: z-scores are
  /// computed against the state *before* folding in the new value, so a
  /// spike cannot shrink its own score.
  struct Ewma {
    double mean = 0.0;
    double var = 0.0;
    std::size_t n = 0;
    double z(double x) const;
    void update(double x, double decay);
  };

  void emit(std::size_t t, const char* rule, HealthLevel level, double value,
            double limit, bool expected, bool timing, std::string detail);

  HealthConfig config_;
  TraceSink* sink_;
  std::string line_;  ///< each event renders here before it reaches sink_
  HealthStats stats_;
  std::vector<HealthEvent> events_;
  Ewma cost_;
  Ewma solve_ms_;
  double previous_gap_ = 0.0;
  std::size_t gap_growth_streak_ = 0;
};

}  // namespace coca::obs

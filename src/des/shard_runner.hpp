#pragma once
// Sharded, parallel, request-level replay of COCA slot decisions.
//
// The fleet's server groups are partitioned round-robin into shards; each
// shard owns a private des::Engine with one representative M/G/1/PS server
// per resident group, and shards simulate a slot's request arrivals
// independently on util::ThreadPool workers.  Shards synchronize only at
// COCA slot boundaries (the Wei & Neely asynchronous-control structure, and
// ROOT-Sim's conservative-lookahead specialization where the lookahead
// window is the slot): at each boundary the controller's decisions are
// applied to every group — speed x_i(t) via PsQueue::set_speed, per-server
// arrival rate via the load split — and then every shard runs forward to
// the next boundary with no cross-shard events.
//
// Determinism contract (mirrors the GSD/sweep substrate):
//   * group g draws from the independent stream stream_seed(seed, g), keyed
//     by *group* rather than shard, and groups never interact inside an
//     engine — so the replay is bit-identical across thread counts AND
//     across shard counts;
//   * per-request sojourn times stream into per-group obs::TailHistogram
//     bins (integer counts, exact merge), merged in group order; all
//     floating-point reductions run serially in group order.
//
// Spans: `des_replay` wraps the run, one `des_slot` per slot, and each
// shard's work lands under `des_shard[s]` via the captured parent path.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dc/power_model.hpp"
#include "des/slot_replay.hpp"
#include "obs/exposition.hpp"
#include "obs/tail_histogram.hpp"
#include "util/thread_pool.hpp"

namespace coca::des {

struct ShardReplayConfig {
  std::size_t shards = 1;        ///< server-group partitions (round-robin)
  std::size_t threads = 0;       ///< 0 = COCA_THREADS env, else hardware
  double seconds_per_slot = 60.0;///< simulated seconds per COCA slot
  std::uint64_t seed = 9;
  obs::TailHistogram::Config histogram{};
  bool trace_slots = false;      ///< collect per-slot tail traces (JSONL)
  /// Give each shard a private obs::Registry populated with *group-keyed*
  /// instruments ("des.group[g].arrivals", ...).  Because groups partition
  /// round-robin, the names are disjoint across shards, so the merged
  /// snapshot (ShardReplayResult::registry) is bit-identical regardless of
  /// shard count and thread count — pinned by tests/obs_exposition_test.cpp.
  bool shard_registries = false;
};

inline constexpr const char* kDesTraceSchema = "coca-des-trace-v1";

/// One per-slot record of the request-level replay (schema
/// "coca-des-trace-v1"): request counts and the slot's sojourn-time
/// quantiles.  Every field is deterministic.
struct DesSlotTrace {
  std::size_t t = 0;
  std::uint64_t arrivals = 0;     ///< requests arriving during the slot
  std::uint64_t completions = 0;  ///< requests finishing during the slot
  std::uint64_t in_flight = 0;    ///< requests resident at the slot boundary
  double p50_s = 0.0;             ///< this slot's sojourn-time quantiles (s)
  double p99_s = 0.0;
  double p999_s = 0.0;
};

/// Append one record to `out` as a single JSON line (no trailing newline;
/// fixed key order, std::to_chars number formatting — byte-identical across
/// runs and thread counts).
void append_json_line(std::string& out, const DesSlotTrace& slot);

/// The same line, returned as a new string.
std::string to_json_line(const DesSlotTrace& slot);

struct ShardReplayResult {
  obs::TailHistogram sojourn;          ///< merged across groups (exact)
  std::uint64_t requests = 0;          ///< arrivals replayed
  std::uint64_t completions = 0;
  std::uint64_t in_flight = 0;         ///< censored at the horizon
  double total_response_seconds = 0.0;
  double area_jobs = 0.0;              ///< sum of per-group occupancy integrals
  double duration_seconds = 0.0;       ///< simulated horizon
  std::vector<DesSlotTrace> slot_traces;  ///< when config.trace_slots
  /// When config.shard_registries: one snapshot per shard, in shard order,
  /// and their exact merge (obs/exposition.hpp semantics).
  std::vector<obs::RegistrySnapshot> shard_registry_snapshots;
  obs::RegistrySnapshot registry;

  double mean_response_seconds() const {
    return completions ? total_response_seconds /
                             static_cast<double>(completions)
                       : 0.0;
  }
  /// Fleet-wide mean requests in system (comparable to the analytic Eq. 4
  /// delay cost once scaled by servers per group).
  double mean_jobs_in_system() const {
    return duration_seconds > 0.0 ? area_jobs / duration_seconds : 0.0;
  }
  /// Sojourn-time quantile over every completed request (seconds).
  double quantile(double p) const { return sojourn.quantile(p); }
};

class ShardRunner {
 public:
  /// The runner keeps no per-replay state: replay() may be called several
  /// times (each call rebuilds queues and RNG streams from the seed).
  ShardRunner(const dc::Fleet& fleet, const ShardReplayConfig& config);

  std::size_t shard_count() const { return shards_; }
  std::size_t threads() const { return pool_.thread_count(); }

  /// Replay one allocation per slot.  Every allocation must match the
  /// fleet's group count; throws std::invalid_argument otherwise.
  ShardReplayResult replay(const std::vector<dc::Allocation>& decisions);

 private:
  const dc::Fleet* fleet_;
  ShardReplayConfig config_;
  std::size_t shards_;
  util::ThreadPool pool_;
};

}  // namespace coca::des

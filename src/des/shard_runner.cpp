#include "des/shard_runner.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "des/job_source.hpp"
#include "des/ps_queue.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace coca::des {

namespace {

/// Everything one representative server (group) owns during a replay.
struct GroupSim {
  explicit GroupSim(const obs::TailHistogram::Config& bins) : sojourn(bins) {}

  obs::TailHistogram sojourn;
  std::unique_ptr<PsQueue> queue;
  std::unique_ptr<JobSource> source;
  double speed = 0.0;  ///< last applied speed (skip redundant reschedules)
};

/// Group-keyed instrument name, e.g. "des.group[7].arrivals".  Keying by
/// group (never by shard) is what keeps the names disjoint across shards
/// and the merged registry invariant to the shard layout.
std::string group_metric(std::size_t g, const char* suffix) {
  std::string name = "des.group[";
  name += std::to_string(g);
  name += "].";
  name += suffix;
  return name;
}

/// Apply one group's slot decision at the boundary: speed via set_speed
/// (x_i(t)), per-server arrival rate via the load split.  Groups switched
/// off keep their last speed so in-flight requests drain.
void apply_decision(GroupSim& group, const dc::ServerGroup& hardware,
                    const dc::GroupAllocation& alloc) {
  if (alloc.active > 0.0 && alloc.load > 0.0) {
    const double speed = hardware.spec().level(alloc.level).service_rate;
    if (speed != group.speed) {
      group.queue->set_speed(speed);
      group.speed = speed;
    }
    group.source->set_rate(alloc.load / alloc.active);
  } else {
    group.source->set_rate(0.0);
  }
}

}  // namespace

void append_json_line(std::string& out, const DesSlotTrace& slot) {
  const auto field = [&out](const char* key, auto value) {
    out += key;
    obs::append_json_number(out, value);
  };
  field("{\"t\":", static_cast<std::int64_t>(slot.t));
  field(",\"arrivals\":", static_cast<std::int64_t>(slot.arrivals));
  field(",\"completions\":", static_cast<std::int64_t>(slot.completions));
  field(",\"in_flight\":", static_cast<std::int64_t>(slot.in_flight));
  field(",\"p50_s\":", slot.p50_s);
  field(",\"p99_s\":", slot.p99_s);
  field(",\"p999_s\":", slot.p999_s);
  out += '}';
}

std::string to_json_line(const DesSlotTrace& slot) {
  std::string out;
  out.reserve(160);
  append_json_line(out, slot);
  return out;
}

ShardRunner::ShardRunner(const dc::Fleet& fleet,
                         const ShardReplayConfig& config)
    : fleet_(&fleet),
      config_(config),
      shards_(config.shards == 0 ? 1 : config.shards),
      pool_(config.threads) {
  if (config_.seconds_per_slot <= 0.0) {
    throw std::invalid_argument("ShardRunner: seconds_per_slot must be > 0");
  }
  if (shards_ > fleet.group_count() && fleet.group_count() > 0) {
    shards_ = fleet.group_count();  // empty shards would only add barriers
  }
}

ShardReplayResult ShardRunner::replay(
    const std::vector<dc::Allocation>& decisions) {
  const obs::ScopedSpan replay_span("des_replay");
  const std::size_t group_count = fleet_->group_count();
  for (const auto& alloc : decisions) {
    if (alloc.size() != group_count) {
      throw std::invalid_argument(
          "ShardRunner::replay: allocation size mismatch");
    }
  }

  ShardReplayResult result;
  result.sojourn = obs::TailHistogram(config_.histogram);
  result.duration_seconds =
      static_cast<double>(decisions.size()) * config_.seconds_per_slot;
  if (decisions.empty() || group_count == 0) return result;

  // Build the per-shard engines and per-group simulations.  Group state
  // (queue, RNG stream, histogram) is keyed by group index, engines by
  // shard; groups never interact inside an engine, which is what makes the
  // replay invariant to the shard count as well as the thread count.
  std::vector<Engine> engines(shards_);
  std::vector<std::vector<std::size_t>> shard_groups(shards_);
  std::vector<GroupSim> groups;
  groups.reserve(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    groups.emplace_back(config_.histogram);
  }
  for (std::size_t g = 0; g < group_count; ++g) {
    const std::size_t shard = g % shards_;
    shard_groups[shard].push_back(g);
    GroupSim& group = groups[g];
    Engine& engine = engines[shard];
    // Start every server at its slowest positive speed; the first slot's
    // decision overrides it before any request arrives.
    group.speed = fleet_->group(g).spec().level(0).service_rate;
    group.queue = std::make_unique<PsQueue>(engine, group.speed);
    group.queue->set_sojourn_sink(&group.sojourn);
    group.source = std::make_unique<JobSource>(
        engine, *group.queue, 0.0, 1.0, result.duration_seconds,
        stream_seed(config_.seed, g));
  }

  // Per-shard registries: written only by the shard's worker inside the
  // parallel region (group-keyed names, slot order), snapshotted serially
  // after the run.
  std::vector<std::unique_ptr<obs::Registry>> shard_registries;
  if (config_.shard_registries) {
    shard_registries.reserve(shards_);
    for (std::size_t s = 0; s < shards_; ++s) {
      shard_registries.push_back(std::make_unique<obs::Registry>());
    }
  }

  // Per-slot cumulative snapshots, for the slot-delta trace.
  obs::TailHistogram cumulative(config_.histogram);
  std::uint64_t seen_arrivals = 0;
  std::uint64_t seen_completions = 0;

  for (std::size_t t = 0; t < decisions.size(); ++t) {
    const obs::ScopedSpan slot_span("des_slot");
    const std::string parent = obs::current_span_path();
    const double boundary =
        static_cast<double>(t + 1) * config_.seconds_per_slot;
    const dc::Allocation& alloc = decisions[t];
    // The slot barrier: apply the controller's decisions to every shard,
    // then simulate the slot's arrivals independently per shard.
    pool_.parallel_for(shards_, [&](std::size_t s) {
      const obs::ScopedSpan shard_span(
          "des_shard[" + std::to_string(s) + "]", parent);
      for (const std::size_t g : shard_groups[s]) {
        apply_decision(groups[g], fleet_->group(g), alloc[g]);
      }
      engines[s].run_until(boundary);
      if (config_.shard_registries) {
        obs::Registry& registry = *shard_registries[s];
        for (const std::size_t g : shard_groups[s]) {
          const auto stats = groups[g].queue->stats();
          // Cumulative totals as gauges (merge = max recovers the final
          // value); per-boundary occupancy as a histogram, recorded in slot
          // order by the one worker that owns the group.
          registry.gauge(group_metric(g, "arrivals"))
              .set(static_cast<double>(stats.arrivals));
          registry.gauge(group_metric(g, "completions"))
              .set(static_cast<double>(stats.completions));
          registry
              .histogram(group_metric(g, "inflight_jobs"))
              .record(static_cast<double>(groups[g].queue->jobs_in_system()));
          registry.counter(group_metric(g, "slot_boundaries")).add(1);
        }
      }
    });

    if (config_.trace_slots) {
      // Cumulative merge in group order, then the slot's delta: integer bin
      // counts subtract exactly, so per-slot quantiles inherit the exact-
      // merge determinism.
      obs::TailHistogram now_cumulative(config_.histogram);
      std::uint64_t arrivals = 0;
      std::uint64_t completions = 0;
      std::uint64_t resident = 0;
      for (auto& group : groups) {
        now_cumulative.merge(group.sojourn);
        const auto stats = group.queue->stats();
        arrivals += stats.arrivals;
        completions += stats.completions;
        resident += group.queue->jobs_in_system();
      }
      const obs::TailHistogram slot_hist = now_cumulative.since(cumulative);
      DesSlotTrace trace;
      trace.t = t;
      trace.arrivals = arrivals - seen_arrivals;
      trace.completions = completions - seen_completions;
      trace.in_flight = resident;
      trace.p50_s = slot_hist.quantile(0.50);
      trace.p99_s = slot_hist.quantile(0.99);
      trace.p999_s = slot_hist.quantile(0.999);
      result.slot_traces.push_back(trace);
      cumulative = now_cumulative;
      seen_arrivals = arrivals;
      seen_completions = completions;
    }
  }

  // Final reduction, serially in group order (bit-identical regardless of
  // thread/shard layout).
  for (auto& group : groups) {
    result.sojourn.merge(group.sojourn);
    const auto stats = group.queue->stats();
    result.requests += stats.arrivals;
    result.completions += stats.completions;
    result.total_response_seconds += stats.total_response_seconds;
    result.area_jobs += stats.area_jobs;
    result.in_flight += group.queue->jobs_in_system();
  }
  if (config_.shard_registries) {
    result.shard_registry_snapshots.reserve(shards_);
    for (const auto& registry : shard_registries) {
      result.shard_registry_snapshots.push_back(
          obs::snapshot_registry(*registry));
    }
    result.registry = obs::merge_snapshots(result.shard_registry_snapshots);
  }
  return result;
}

}  // namespace coca::des

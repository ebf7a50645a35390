#include "fault/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace coca::fault {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("fault::Schedule: " + what);
}

}  // namespace

void Schedule::validate(std::size_t group_count, std::size_t slots) const {
  if (checkpoint_every == 0) bad("checkpoint_every must be >= 1");
  if (!std::isfinite(shed_jobs_per_rps) || shed_jobs_per_rps < 0.0) {
    bad("shed_jobs_per_rps must be finite and >= 0");
  }
  for (const auto& ev : outages) {
    if (ev.group >= group_count) {
      bad("outage group " + std::to_string(ev.group) + " out of range");
    }
    if (ev.begin >= ev.end) bad("outage interval must satisfy begin < end");
    if (ev.end > slots) bad("outage interval ends past the horizon");
    if (!(ev.fraction > 0.0) || ev.fraction > 1.0) {
      bad("outage fraction must be in (0, 1]");
    }
  }
  for (const auto& ev : staleness) {
    if (ev.begin >= ev.end) bad("staleness interval must satisfy begin < end");
    if (ev.end > slots) bad("staleness interval ends past the horizon");
    if (ev.lag == 0) bad("staleness lag must be >= 1");
  }
  for (const auto& ev : deadlines) {
    if (ev.begin >= ev.end) bad("deadline interval must satisfy begin < end");
    if (ev.end > slots) bad("deadline interval ends past the horizon");
    if (ev.max_evaluations < 0) bad("deadline budget must be >= 0");
  }
  for (const auto& ev : crashes) {
    if (ev.slot >= slots) bad("crash slot past the horizon");
  }
}

Schedule Schedule::generate(const Profile& profile, std::size_t group_count,
                            std::size_t slots) {
  if (!(profile.outage_rate >= 0.0 && profile.outage_rate <= 1.0)) {
    bad("generate: outage_rate must be in [0, 1]");
  }
  // +inf is refused too: llround of an infinite draw is unspecified.
  if (!std::isfinite(profile.mean_outage_slots) ||
      profile.mean_outage_slots <= 0.0) {
    bad("generate: mean_outage_slots must be finite and > 0");
  }
  if (!(profile.outage_fraction > 0.0) || profile.outage_fraction > 1.0) {
    bad("generate: outage_fraction must be in (0, 1]");
  }
  Schedule schedule;
  const util::Rng base(profile.seed);
  for (std::size_t g = 0; g < group_count; ++g) {
    // One independent stream per group: adding or removing a group never
    // shifts the outage pattern of the others (same trick as the DES's
    // group-keyed arrival streams).
    util::Rng rng = base.split(g + 1);
    std::size_t t = 0;
    while (t < slots) {
      if (!rng.bernoulli(profile.outage_rate)) {
        ++t;
        continue;
      }
      const double draw = rng.exponential(profile.mean_outage_slots);
      const auto duration = static_cast<std::size_t>(
          std::llround(std::max(1.0, draw)));
      OutageEvent ev;
      ev.group = g;
      ev.begin = t;
      ev.end = std::min(slots, t + duration);
      ev.fraction = profile.outage_fraction;
      schedule.outages.push_back(ev);
      t = ev.end;  // repair before the next onset draw
    }
  }
  if (profile.staleness_lag > 0 && slots > 0) {
    for (const Channel channel :
         {Channel::kLambda, Channel::kPrice, Channel::kRenewable}) {
      StalenessEvent ev;
      ev.channel = channel;
      ev.begin = 0;
      ev.end = slots;
      ev.lag = profile.staleness_lag;
      schedule.staleness.push_back(ev);
    }
  }
  return schedule;
}

}  // namespace coca::fault

#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace coca::fault {

Injector::Injector(const dc::Fleet& fleet, const Schedule& schedule,
                   std::size_t slots)
    : baseline_(&fleet), schedule_(schedule) {
  const obs::ScopedSpan span("fault_resolve");
  schedule_.validate(fleet.group_count(), slots);

  // Stable event order regardless of how the schedule was assembled: the
  // resolved tables (and therefore the run) depend only on the event *set*.
  std::sort(schedule_.outages.begin(), schedule_.outages.end(),
            [](const OutageEvent& a, const OutageEvent& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.group != b.group) return a.group < b.group;
              return a.end < b.end;
            });

  fleet_index_.assign(slots, 0);
  lags_.assign(slots, StalenessLags{});
  budgets_.assign(slots, -1);
  crash_.assign(slots, 0);

  // Per-slot failed-server counts: max failed fraction across overlapping
  // outages, rounded to whole servers per group.  One sweep over the
  // begin-sorted events: `active` holds the outages covering slot t, so a
  // slot costs its own outages, not the schedule's.
  std::vector<double> fraction(fleet.group_count(), 0.0);
  std::vector<std::size_t> failed(fleet.group_count(), 0);
  std::map<std::vector<std::size_t>, std::size_t> fleet_cache;
  std::vector<const OutageEvent*> active;
  auto next = schedule_.outages.cbegin();
  for (std::size_t t = 0; t < slots; ++t) {
    for (; next != schedule_.outages.cend() && next->begin <= t; ++next) {
      active.push_back(&*next);
    }
    std::erase_if(active, [t](const OutageEvent* ev) { return ev->end <= t; });
    if (active.empty()) continue;
    std::fill(fraction.begin(), fraction.end(), 0.0);
    for (const OutageEvent* ev : active) {
      fraction[ev->group] = std::max(fraction[ev->group], ev->fraction);
    }
    for (std::size_t g = 0; g < fleet.group_count(); ++g) {
      const auto servers = fleet.group(g).server_count();
      failed[g] = std::min(
          servers, static_cast<std::size_t>(std::llround(
                       fraction[g] * static_cast<double>(servers))));
    }
    const auto [it, inserted] =
        fleet_cache.try_emplace(failed, degraded_.size() + 1);
    if (inserted) {
      degraded_.push_back(
          std::make_unique<dc::Fleet>(dc::degraded_fleet(fleet, failed)));
    }
    fleet_index_[t] = it->second;
  }

  for (const auto& ev : schedule_.staleness) {
    for (std::size_t t = ev.begin; t < ev.end; ++t) {
      switch (ev.channel) {
        case Channel::kLambda:
          lags_[t].lambda = std::max(lags_[t].lambda, ev.lag);
          break;
        case Channel::kPrice:
          lags_[t].price = std::max(lags_[t].price, ev.lag);
          break;
        case Channel::kRenewable:
          lags_[t].renewable = std::max(lags_[t].renewable, ev.lag);
          break;
      }
    }
  }
  for (const auto& ev : schedule_.deadlines) {
    for (std::size_t t = ev.begin; t < ev.end; ++t) {
      budgets_[t] = budgets_[t] < 0
                        ? ev.max_evaluations
                        : std::min(budgets_[t], ev.max_evaluations);
    }
  }
  for (const auto& ev : schedule_.crashes) crash_[ev.slot] = 1;

  obs::count("fault.injectors_built");
  obs::gauge_set("fault.distinct_fleets",
                 static_cast<double>(distinct_fleets()));
}

const dc::Fleet& Injector::fleet_at(std::size_t t) const {
  const obs::ScopedSpan span("fault_fleet_at");
  const std::size_t index = fleet_index_.at(t);
  return index == 0 ? *baseline_ : *degraded_[index - 1];
}

}  // namespace coca::fault

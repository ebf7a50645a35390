#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

constexpr std::size_t kMaxReportedErrors = 8;

bool finite(double x) { return std::isfinite(x); }

}  // namespace

void CheckTally::fail(std::string message) {
  if (errors.size() < kMaxReportedErrors) errors.push_back(std::move(message));
  else if (errors.size() == kMaxReportedErrors) errors.push_back("...");
}

void check_run(const coca::dc::Fleet& fleet,
               const coca::fault::Injector* injector,
               const coca::sim::SimResult& run,
               const std::vector<coca::dc::Allocation>& executed, double gamma,
               CheckTally& tally) {
  const auto& records = run.metrics.slots();
  if (records.size() != executed.size()) {
    tally.fail("run recorded " + std::to_string(executed.size()) +
               " allocations for " + std::to_string(records.size()) +
               " slots");
    return;
  }
  for (std::size_t t = 0; t < records.size(); ++t) {
    const auto& record = records[t];
    const coca::dc::Allocation& alloc = executed[t];
    const coca::dc::Fleet& slot_fleet =
        injector != nullptr ? injector->fleet_at(t) : fleet;
    std::ostringstream why;

    if (alloc.size() != slot_fleet.group_count()) {
      why << "allocation has " << alloc.size() << " groups; ";
    } else {
      double load_sum = 0.0;
      for (std::size_t g = 0; g < alloc.size(); ++g) {
        const auto& a = alloc[g];
        const auto& group = slot_fleet.group(g);
        load_sum += a.load;
        if (!(a.load >= 0.0) || !(a.active >= 0.0) ||
            a.active > static_cast<double>(group.server_count()) ||
            a.level >= group.spec().level_count()) {
          why << "group " << g << " out of range (level " << a.level
              << ", active " << a.active << ", load " << a.load << "); ";
          continue;
        }
        const double cap =
            gamma * a.active * group.spec().level(a.level).service_rate;
        const double over = cap > 0.0 ? (a.load - cap) / cap
                                       : (a.load > 0.0 ? 1.0 : 0.0);
        tally.worst_capacity_rel = std::max(tally.worst_capacity_rel, over);
        if (over > kCapacityRelTol) {
          why << "group " << g << " load " << a.load << " > cap " << cap
              << "; ";
        }
      }
      const double target =
          record.lambda.value() - record.shed_lambda.value();
      const double rel =
          std::abs(load_sum - target) / std::max(std::abs(target), 1.0);
      tally.worst_load_sum_rel = std::max(tally.worst_load_sum_rel, rel);
      if (!(rel <= kLoadSumRelTol)) {
        why << "sum of loads " << load_sum << " != lambda - shed " << target
            << "; ";
      }
    }

    const double billed[] = {record.it_power_kw.value(),
                             record.facility_power_kw.value(),
                             record.brown_kwh.value(),
                             record.electricity_cost.value(),
                             record.delay_cost.value(),
                             record.total_cost.value(),
                             record.rec_cost.value()};
    if (!std::all_of(std::begin(billed), std::end(billed), finite)) {
      why << "non-finite billed quantity; ";
    }
    if (!(record.brown_kwh.value() >= 0.0)) why << "negative brown energy; ";
    if (!(record.queue_length >= 0.0) || !finite(record.queue_length)) {
      why << "queue " << record.queue_length << " not >= 0; ";
    }

    ++tally.slots;
    const std::string broken = why.str();
    if (!broken.empty()) {
      tally.fail("slot " + std::to_string(t) + ": " + broken);
    }
    if (!broken.empty() || record.shed_lambda.value() > 0.0) {
      ++tally.failed_slots;
    }
  }
}

bool bit_identical(const coca::des::ShardReplayResult& a,
                   const coca::des::ShardReplayResult& b) {
  return a.sojourn.counts() == b.sojourn.counts() &&
         a.requests == b.requests && a.completions == b.completions &&
         a.in_flight == b.in_flight &&
         a.total_response_seconds == b.total_response_seconds &&
         a.area_jobs == b.area_jobs &&
         a.duration_seconds == b.duration_seconds;
}

}  // namespace perfbench

// Tests for the deterministic fault schedule (fault/schedule.hpp) and its
// resolved per-slot view (fault::Injector): validation, seeded generation,
// per-group stream independence, and event -> lookup-table resolution with
// degraded-fleet caching (checked against a full per-slot scan on seeded
// random schedules).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dc/fleet.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "util/rng.hpp"

namespace coca {
namespace {

using fault::Channel;
using fault::Injector;
using fault::Profile;
using fault::Schedule;

// --- Schedule validation ---

TEST(FaultSchedule, EmptyScheduleIsEmptyAndValid) {
  Schedule schedule;
  EXPECT_TRUE(schedule.empty());
  EXPECT_NO_THROW(schedule.validate(4, 100));
}

TEST(FaultSchedule, ValidatesOutageEvents) {
  Schedule schedule;
  schedule.outages.push_back({.group = 4, .begin = 0, .end = 1});
  EXPECT_THROW(schedule.validate(4, 100), std::invalid_argument);

  schedule.outages = {{.group = 0, .begin = 5, .end = 5}};
  EXPECT_THROW(schedule.validate(4, 100), std::invalid_argument);

  schedule.outages = {{.group = 0, .begin = 5, .end = 101}};
  EXPECT_THROW(schedule.validate(4, 100), std::invalid_argument);

  schedule.outages = {{.group = 0, .begin = 0, .end = 1, .fraction = 0.0}};
  EXPECT_THROW(schedule.validate(4, 100), std::invalid_argument);

  schedule.outages = {{.group = 0, .begin = 0, .end = 1, .fraction = 1.5}};
  EXPECT_THROW(schedule.validate(4, 100), std::invalid_argument);

  schedule.outages = {{.group = 3, .begin = 0, .end = 100, .fraction = 1.0}};
  EXPECT_NO_THROW(schedule.validate(4, 100));
  EXPECT_FALSE(schedule.empty());
}

TEST(FaultSchedule, ValidatesStalenessDeadlinesCrashesAndKnobs) {
  Schedule schedule;
  schedule.staleness.push_back({Channel::kPrice, 3, 3, 1});
  EXPECT_THROW(schedule.validate(2, 10), std::invalid_argument);
  schedule.staleness = {{Channel::kPrice, 0, 10, 0}};
  EXPECT_THROW(schedule.validate(2, 10), std::invalid_argument);
  schedule.staleness = {{Channel::kPrice, 0, 10, 2}};
  EXPECT_NO_THROW(schedule.validate(2, 10));

  schedule.deadlines.push_back({.begin = 0, .end = 11, .max_evaluations = 5});
  EXPECT_THROW(schedule.validate(2, 10), std::invalid_argument);
  schedule.deadlines = {{.begin = 0, .end = 10, .max_evaluations = -1}};
  EXPECT_THROW(schedule.validate(2, 10), std::invalid_argument);
  schedule.deadlines = {{.begin = 0, .end = 10, .max_evaluations = 0}};
  EXPECT_NO_THROW(schedule.validate(2, 10));

  schedule.crashes.push_back({.slot = 10});
  EXPECT_THROW(schedule.validate(2, 10), std::invalid_argument);
  schedule.crashes = {{.slot = 9}};
  EXPECT_NO_THROW(schedule.validate(2, 10));

  schedule.checkpoint_every = 0;
  EXPECT_THROW(schedule.validate(2, 10), std::invalid_argument);
  schedule.checkpoint_every = 4;
  schedule.shed_jobs_per_rps = -1.0;
  EXPECT_THROW(schedule.validate(2, 10), std::invalid_argument);
  // NaN passed the `< 0` check and billed a NaN total cost.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    schedule.shed_jobs_per_rps = bad;
    EXPECT_THROW(schedule.validate(2, 10), std::invalid_argument) << bad;
  }
  schedule.shed_jobs_per_rps = 2.0;
  EXPECT_NO_THROW(schedule.validate(2, 10));
}

// --- Seeded generation ---

TEST(FaultScheduleGenerate, IsAPureFunctionOfProfileAndSeed) {
  Profile profile;
  profile.outage_rate = 0.05;
  profile.mean_outage_slots = 4.0;
  profile.outage_fraction = 0.5;
  profile.seed = 42;

  const Schedule a = Schedule::generate(profile, 5, 500);
  const Schedule b = Schedule::generate(profile, 5, 500);
  ASSERT_EQ(a.outages.size(), b.outages.size());
  EXPECT_FALSE(a.outages.empty());
  for (std::size_t i = 0; i < a.outages.size(); ++i) {
    EXPECT_EQ(a.outages[i].group, b.outages[i].group);
    EXPECT_EQ(a.outages[i].begin, b.outages[i].begin);
    EXPECT_EQ(a.outages[i].end, b.outages[i].end);
    EXPECT_EQ(a.outages[i].fraction, b.outages[i].fraction);  // bitwise
  }

  profile.seed = 43;
  const Schedule c = Schedule::generate(profile, 5, 500);
  bool differs = a.outages.size() != c.outages.size();
  for (std::size_t i = 0; !differs && i < a.outages.size(); ++i) {
    differs = a.outages[i].begin != c.outages[i].begin ||
              a.outages[i].end != c.outages[i].end;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultScheduleGenerate, GroupStreamsAreIndependentOfGroupCount) {
  // Group g draws from a stream split off the seed by g, so adding groups
  // never shifts the outage pattern of existing ones.
  Profile profile;
  profile.outage_rate = 0.08;
  profile.seed = 7;
  const Schedule narrow = Schedule::generate(profile, 1, 400);
  const Schedule wide = Schedule::generate(profile, 3, 400);

  std::vector<fault::OutageEvent> wide_group0;
  for (const auto& ev : wide.outages) {
    if (ev.group == 0) wide_group0.push_back(ev);
  }
  ASSERT_EQ(narrow.outages.size(), wide_group0.size());
  for (std::size_t i = 0; i < narrow.outages.size(); ++i) {
    EXPECT_EQ(narrow.outages[i].begin, wide_group0[i].begin);
    EXPECT_EQ(narrow.outages[i].end, wide_group0[i].end);
  }
}

TEST(FaultScheduleGenerate, OutagesAreDisjointPerGroupAndInsideHorizon) {
  Profile profile;
  profile.outage_rate = 0.2;
  profile.mean_outage_slots = 10.0;
  profile.seed = 11;
  const Schedule schedule = Schedule::generate(profile, 2, 300);
  ASSERT_FALSE(schedule.outages.empty());
  std::size_t last_end[2] = {0, 0};
  for (const auto& ev : schedule.outages) {
    ASSERT_LT(ev.group, 2u);
    EXPECT_LT(ev.begin, ev.end);
    EXPECT_LE(ev.end, 300u);
    EXPECT_GE(ev.begin, last_end[ev.group]);  // repair before the next onset
    last_end[ev.group] = ev.end;
  }
  EXPECT_NO_THROW(schedule.validate(2, 300));
}

TEST(FaultScheduleGenerate, StalenessCoversEveryChannelWhenRequested) {
  Profile profile;
  profile.staleness_lag = 3;
  const Schedule schedule = Schedule::generate(profile, 2, 50);
  ASSERT_EQ(schedule.staleness.size(), 3u);
  for (const auto& ev : schedule.staleness) {
    EXPECT_EQ(ev.begin, 0u);
    EXPECT_EQ(ev.end, 50u);
    EXPECT_EQ(ev.lag, 3u);
  }
  EXPECT_TRUE(Schedule::generate({}, 2, 50).empty());  // default profile
}

TEST(FaultScheduleGenerate, RejectsMalformedProfiles) {
  Profile profile;
  profile.outage_rate = 1.5;
  EXPECT_THROW(Schedule::generate(profile, 2, 10), std::invalid_argument);
  profile.outage_rate = 0.1;
  profile.mean_outage_slots = 0.0;
  EXPECT_THROW(Schedule::generate(profile, 2, 10), std::invalid_argument);
  profile.mean_outage_slots = 5.0;
  profile.outage_fraction = 0.0;
  EXPECT_THROW(Schedule::generate(profile, 2, 10), std::invalid_argument);
  profile.outage_fraction = 1.0;
  // Non-finite knobs passed the comparisons: a NaN rate gave no outages and
  // a NaN mean one-slot outages; an infinite mean reaches llround(inf).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double rate : {kNaN, kInf, -kInf}) {
    Profile bad = profile;
    bad.outage_rate = rate;
    EXPECT_THROW(Schedule::generate(bad, 2, 10), std::invalid_argument)
        << rate;
  }
  for (const double mean : {kNaN, kInf, -kInf}) {
    Profile bad = profile;
    bad.mean_outage_slots = mean;
    EXPECT_THROW(Schedule::generate(bad, 2, 10), std::invalid_argument)
        << mean;
  }
  EXPECT_NO_THROW(Schedule::generate(profile, 2, 10));
}

// --- Injector resolution ---

TEST(FaultInjector, ResolvesOutagesIntoDegradedFleets) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  Schedule schedule;
  schedule.outages = {{.group = 0, .begin = 2, .end = 5, .fraction = 1.0},
                      {.group = 1, .begin = 3, .end = 4, .fraction = 0.5}};
  const Injector injector(fleet, schedule, 8);

  EXPECT_FALSE(injector.degraded_at(0));
  EXPECT_EQ(&injector.fleet_at(0), &fleet);
  EXPECT_TRUE(injector.degraded_at(2));
  EXPECT_EQ(injector.fleet_at(2).group(0).server_count(), 0u);
  EXPECT_EQ(injector.fleet_at(2).group(1).server_count(), 10u);
  // Slot 3 overlaps both outages: group 0 dark, half of group 1 down.
  EXPECT_EQ(injector.fleet_at(3).group(0).server_count(), 0u);
  EXPECT_EQ(injector.fleet_at(3).group(1).server_count(), 5u);
  EXPECT_EQ(injector.fleet_at(4).group(0).server_count(), 0u);
  EXPECT_EQ(injector.fleet_at(4).group(1).server_count(), 10u);
  // Recovery at `end`.
  EXPECT_FALSE(injector.degraded_at(5));
  EXPECT_EQ(&injector.fleet_at(5), &fleet);
  // Group structure preserved throughout.
  EXPECT_EQ(injector.fleet_at(3).group_count(), fleet.group_count());
}

TEST(FaultInjector, CachesDistinctDegradedConfigurations) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 10);
  Schedule schedule;
  // Two disjoint intervals with the same failed-per-group vector share one
  // degraded fleet; a third configuration gets its own.
  schedule.outages = {{.group = 0, .begin = 0, .end = 2, .fraction = 1.0},
                      {.group = 0, .begin = 4, .end = 6, .fraction = 1.0},
                      {.group = 1, .begin = 8, .end = 9, .fraction = 1.0}};
  const Injector injector(fleet, schedule, 10);
  EXPECT_EQ(injector.distinct_fleets(), 3u);  // baseline + 2 degraded
  EXPECT_EQ(&injector.fleet_at(0), &injector.fleet_at(5));
  EXPECT_NE(&injector.fleet_at(0), &injector.fleet_at(8));
  EXPECT_EQ(injector.fleet_index_at(0), injector.fleet_index_at(5));
}

TEST(FaultInjector, OverlappingOutagesTakeTheMaxFraction) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(1, 10);
  Schedule schedule;
  schedule.outages = {{.group = 0, .begin = 0, .end = 4, .fraction = 0.3},
                      {.group = 0, .begin = 2, .end = 6, .fraction = 0.8}};
  const Injector injector(fleet, schedule, 6);
  EXPECT_EQ(injector.fleet_at(1).group(0).server_count(), 7u);  // 30% of 10
  EXPECT_EQ(injector.fleet_at(3).group(0).server_count(), 2u);  // max -> 80%
  EXPECT_EQ(injector.fleet_at(5).group(0).server_count(), 2u);
}

TEST(FaultInjector, ResolvesStalenessDeadlinesAndCrashes) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(1, 4);
  Schedule schedule;
  schedule.staleness = {{Channel::kLambda, 1, 4, 2},
                        {Channel::kLambda, 2, 5, 1},  // max-merged with above
                        {Channel::kRenewable, 3, 4, 6}};
  schedule.deadlines = {{.begin = 2, .end = 5, .max_evaluations = 40},
                        {.begin = 4, .end = 6, .max_evaluations = 10}};
  schedule.crashes = {{.slot = 3}};
  const Injector injector(fleet, schedule, 8);

  EXPECT_FALSE(injector.staleness_at(0).any());
  EXPECT_EQ(injector.staleness_at(1).lambda, 2u);
  EXPECT_EQ(injector.staleness_at(2).lambda, 2u);  // max(2, 1)
  EXPECT_EQ(injector.staleness_at(4).lambda, 1u);
  EXPECT_EQ(injector.staleness_at(3).renewable, 6u);
  EXPECT_EQ(injector.staleness_at(3).price, 0u);
  EXPECT_EQ(injector.staleness_at(3).stale_channels(), 2);

  EXPECT_EQ(injector.evaluation_budget(0), -1);  // unlimited
  EXPECT_EQ(injector.evaluation_budget(2), 40);
  EXPECT_EQ(injector.evaluation_budget(4), 10);  // min-merged
  EXPECT_EQ(injector.evaluation_budget(5), 10);
  EXPECT_EQ(injector.evaluation_budget(6), -1);

  EXPECT_FALSE(injector.crash_before(2));
  EXPECT_TRUE(injector.crash_before(3));
  EXPECT_TRUE(injector.has_crashes());
}

// Outage resolution by plain full scan, the oracle for the injector's
// sweep: every outage is tested against every slot.  Configurations are
// numbered by first appearance; `failed[i - 1]` is configuration i's
// failed-per-group vector.
struct FullScan {
  std::vector<std::size_t> index;  ///< per slot; 0 = baseline
  std::vector<std::vector<std::size_t>> failed;
};

FullScan full_scan(const dc::Fleet& fleet, const Schedule& schedule,
                   std::size_t slots) {
  FullScan scan;
  scan.index.assign(slots, 0);
  for (std::size_t t = 0; t < slots; ++t) {
    std::vector<double> fraction(fleet.group_count(), 0.0);
    bool any = false;
    for (const auto& ev : schedule.outages) {
      if (ev.begin <= t && t < ev.end) {
        fraction[ev.group] = std::max(fraction[ev.group], ev.fraction);
        any = true;
      }
    }
    if (!any) continue;
    std::vector<std::size_t> failed(fleet.group_count());
    for (std::size_t g = 0; g < fleet.group_count(); ++g) {
      const auto servers = fleet.group(g).server_count();
      failed[g] = std::min(
          servers, static_cast<std::size_t>(std::llround(
                       fraction[g] * static_cast<double>(servers))));
    }
    auto seen = std::find(scan.failed.begin(), scan.failed.end(), failed);
    if (seen == scan.failed.end()) {
      scan.failed.push_back(failed);
      seen = scan.failed.end() - 1;
    }
    scan.index[t] = static_cast<std::size_t>(seen - scan.failed.begin()) + 1;
  }
  return scan;
}

/// Seeded outages that pile up the sweep's edge cases: every drawn outage
/// brings one of a nested outage on its group, an outage of another group
/// with the same begin, a one-slot outage, or one that runs to the horizon.
Schedule random_outages(util::Rng& rng, std::size_t groups, std::size_t slots) {
  const double fractions[] = {0.05, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0};
  Schedule schedule;
  const auto add = [&](std::size_t group, std::size_t begin, std::size_t end) {
    schedule.outages.push_back(
        {.group = group,
         .begin = begin,
         .end = end,
         .fraction = fractions[rng.uniform_index(std::size(fractions))]});
  };
  const std::size_t count = 2 + rng.uniform_index(10);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t group = rng.uniform_index(groups);
    const std::size_t begin = rng.uniform_index(slots);
    const std::size_t end = begin + 1 + rng.uniform_index(slots - begin);
    add(group, begin, end);
    switch (rng.uniform_index(4)) {
      case 0:
        if (end - begin > 2) add(group, begin + 1, end - 1);
        break;
      case 1:
        add(rng.uniform_index(groups), begin,
            begin + 1 + rng.uniform_index(slots - begin));
        break;
      case 2:
        add(group, end - 1, end);
        break;
      default:
        add(rng.uniform_index(groups), begin, slots);
        break;
    }
  }
  return schedule;
}

TEST(FaultInjector, SweepMatchesFullScanOnRandomSchedules) {
  // Two hardware generations and group sizes from 1 to 16 servers, so small
  // fractions round to zero failed servers on some groups and not others.
  const dc::ServerSpec newer = dc::ServerSpec::opteron2380();
  const dc::ServerSpec older = newer.scaled("older", 0.8, 1.1);
  const std::size_t sizes[] = {1, 3, 7, 10, 16};
  std::vector<dc::ServerGroup> groups;
  for (const std::size_t servers : sizes) {
    groups.emplace_back(groups.size() % 2 == 0 ? newer : older, servers);
  }
  const dc::Fleet fleet(std::move(groups));
  constexpr std::size_t kSlots = 48;
  util::Rng rng(0xC0CA);
  for (int trial = 0; trial < 80; ++trial) {
    const Schedule schedule = random_outages(rng, fleet.group_count(), kSlots);
    const Injector injector(fleet, schedule, kSlots);
    const FullScan scan = full_scan(fleet, schedule, kSlots);
    ASSERT_EQ(injector.distinct_fleets(), scan.failed.size() + 1) << trial;
    for (std::size_t t = 0; t < kSlots; ++t) {
      const std::size_t index = scan.index[t];
      ASSERT_EQ(injector.fleet_index_at(t), index)
          << "trial " << trial << " slot " << t;
      EXPECT_EQ(injector.degraded_at(t), index != 0);
      const dc::Fleet& live = injector.fleet_at(t);
      for (std::size_t g = 0; g < fleet.group_count(); ++g) {
        const std::size_t failed = index == 0 ? 0 : scan.failed[index - 1][g];
        EXPECT_EQ(live.group(g).server_count(),
                  fleet.group(g).server_count() - failed)
            << "trial " << trial << " slot " << t << " group " << g;
      }
    }
  }
}

TEST(FaultInjector, ValidatesScheduleAgainstFleetAndHorizon) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 4);
  Schedule schedule;
  schedule.outages = {{.group = 2, .begin = 0, .end = 1}};
  EXPECT_THROW(Injector(fleet, schedule, 10), std::invalid_argument);
  schedule.outages = {{.group = 1, .begin = 0, .end = 11}};
  EXPECT_THROW(Injector(fleet, schedule, 10), std::invalid_argument);
}

}  // namespace
}  // namespace coca

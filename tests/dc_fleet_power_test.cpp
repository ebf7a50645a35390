// Tests for fleet assembly, the fleet's level tables and server types, the
// fleet-level power model (Eq. 2), and the slot's electricity bill (Eq. 3)
// and feasibility reasons as opt::evaluate computes them.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "dc/power_model.hpp"
#include "opt/slot_problem.hpp"

namespace coca::dc {
namespace {

TEST(Fleet, DefaultFleetMatchesPaperScale) {
  const Fleet fleet = make_default_fleet();
  EXPECT_EQ(fleet.total_servers(), 216'000u);
  EXPECT_EQ(fleet.group_count(), 200u);
  // Paper: ~50 MW peak server power (231 W x 216 K = 49.9 MW for a
  // homogeneous fleet; heterogeneity moves it a little).
  EXPECT_NEAR(fleet.peak_power_kw(), 50'000.0, 5'000.0);
  EXPECT_GT(fleet.max_capacity(), 1.8e6);
}

TEST(Fleet, ServerCountsExactlyPartitioned) {
  FleetConfig config;
  config.total_servers = 1003;
  config.group_count = 10;
  const Fleet fleet = make_default_fleet(config);
  std::size_t total = 0;
  for (const auto& g : fleet.groups()) total += g.server_count();
  EXPECT_EQ(total, 1003u);
}

TEST(Fleet, GenerationsAreHeterogeneous) {
  const Fleet fleet = make_default_fleet();
  EXPECT_NE(fleet.group(0).spec().max_rate(), fleet.group(1).spec().max_rate());
  // Generation pattern cycles.
  EXPECT_DOUBLE_EQ(fleet.group(0).spec().max_rate(),
                   fleet.group(4).spec().max_rate());
}

TEST(Fleet, SingleGenerationIsHomogeneous) {
  FleetConfig config;
  config.generations = 1;
  config.group_count = 4;
  config.total_servers = 400;
  const Fleet fleet = make_default_fleet(config);
  EXPECT_DOUBLE_EQ(fleet.group(0).spec().max_rate(),
                   fleet.group(3).spec().max_rate());
}

TEST(Fleet, Validation) {
  FleetConfig config;
  config.group_count = 0;
  EXPECT_THROW(make_default_fleet(config), std::invalid_argument);
  EXPECT_THROW(Fleet({}), std::invalid_argument);
}

class PowerModelTest : public ::testing::Test {
 protected:
  Fleet fleet_ = make_homogeneous_fleet(2, 10);

  Allocation alloc(double active0, double load0, double active1, double load1,
                   std::size_t level = 3) {
    Allocation a(2);
    a[0] = {level, active0, load0};
    a[1] = {level, active1, load1};
    return a;
  }

  /// opt::evaluate's infeasible reason for `a` ("" when feasible), with
  /// lambda set to the load `a` serves so that constraint 8 holds.
  std::string reason(const Allocation& a, double gamma = 0.9) const {
    opt::SlotWeights weights;
    weights.gamma = gamma;
    const auto out =
        opt::evaluate(fleet_, a, {total_load(a), 0.0, 0.05}, weights);
    EXPECT_EQ(out.feasible, out.infeasible_reason.empty());
    return out.infeasible_reason;
  }
};

TEST_F(PowerModelTest, ItPowerSumsGroups) {
  // Group 0: 2 servers at 5 req/s each; group 1 off.
  const auto a = alloc(2.0, 10.0, 0.0, 0.0);
  EXPECT_NEAR(it_power_kw(fleet_, a), 2.0 * (0.140 + 0.091 * 0.5), 1e-12);
}

TEST_F(PowerModelTest, BrownPowerClampsAtZero) {
  EXPECT_EQ(brown_power(units::kw(10.0), units::kw(4.0)), units::kw(6.0));
  EXPECT_EQ(brown_power(units::kw(4.0), units::kw(10.0)), units::kw(0.0));
}

TEST_F(PowerModelTest, ElectricityCostEquation3) {
  // w * [p - r]^+ * h, as opt::evaluate bills a slot: ten idle servers of
  // 10 kW draw 100 kW; 30 kW on site leaves 70 kWh at 0.05 $/kWh, and
  // 130 kW on site covers the slot.
  const Fleet flat({ServerGroup(ServerSpec("flat", 10.0, {{1.0, 10.0, 1.0}}),
                                10)});
  const Allocation idle = {{0, 10.0, 0.0}};
  const opt::SlotWeights weights;
  const auto grid = opt::evaluate(flat, idle, {0.0, 30.0, 0.05}, weights);
  ASSERT_TRUE(grid.feasible) << grid.infeasible_reason;
  EXPECT_NEAR(grid.facility_power_kw, 100.0, 1e-12);
  EXPECT_NEAR(grid.brown_kwh, 70.0, 1e-12);
  EXPECT_NEAR(grid.electricity_cost, 3.5, 1e-12);
  const auto covered = opt::evaluate(flat, idle, {0.0, 130.0, 0.05}, weights);
  ASSERT_TRUE(covered.feasible) << covered.infeasible_reason;
  EXPECT_EQ(covered.brown_kwh, 0.0);
  EXPECT_EQ(covered.electricity_cost, 0.0);
}

TEST_F(PowerModelTest, TotalsHelpers) {
  const auto a = alloc(2.0, 10.0, 3.0, 5.0);
  EXPECT_DOUBLE_EQ(total_load(a), 15.0);
  EXPECT_DOUBLE_EQ(total_active_servers(a), 5.0);
}

TEST_F(PowerModelTest, FeasibilityRespectsGammaCap) {
  // gamma = 0.9, top rate 10: cap per server = 9 req/s.
  EXPECT_EQ(reason(alloc(1.0, 9.0, 0.0, 0.0)), "");
  EXPECT_EQ(reason(alloc(1.0, 9.5, 0.0, 0.0)),
            "group 0: load 9.5 exceeds gamma-capped capacity 9");
}

TEST_F(PowerModelTest, FeasibilityCatchesBadShapes) {
  auto a = alloc(1.0, 1.0, 0.0, 0.0);
  EXPECT_EQ(reason(a, 0.0), "gamma outside (0, 1)");
  a[0].active = 11.0;
  EXPECT_EQ(reason(a), "group 0: active outside [0, count]");
  a[0].active = 1.0;
  a[0].level = 7;
  EXPECT_EQ(reason(a), "group 0: bad level");
  EXPECT_EQ(reason(Allocation(1)), "group count mismatch");
}

TEST_F(PowerModelTest, FeasibilityReportsTheFirstFailingGroup) {
  // Group 0 fails its last check (the gamma cap), group 1 its first (the
  // ladder) or the power model's domain: group 0's reason wins.
  auto a = alloc(1.0, 9.5, 1.0, 1.0);
  a[1].level = 7;
  EXPECT_EQ(reason(a), "group 0: load 9.5 exceeds gamma-capped capacity 9");
  a[1].level = 3;
  a[1].active = 11.0;
  EXPECT_EQ(reason(a), "group 0: load 9.5 exceeds gamma-capped capacity 9");
  // And the other way round: group 0 outside the domain, group 1 over its
  // cap.
  a = alloc(0.0, 1.0, 1.0, 9.5);
  EXPECT_EQ(reason(a), "group 0: load with no active servers");
}

TEST_F(PowerModelTest, FeasibilityGroupReasonBeatsServedLoad) {
  // Lambda misses the served load and group 0 lies outside the domain: the
  // group's reason is reported, not constraint 8's.
  const auto a = alloc(11.0, 1.0, 0.0, 0.0);
  const auto out = opt::evaluate(fleet_, a, {5.0, 0.0, 0.05}, {});
  EXPECT_FALSE(out.feasible);
  EXPECT_EQ(out.infeasible_reason, "group 0: active outside [0, count]");
  // With the group fixed, the served load is what fails.
  const auto fixed = opt::evaluate(fleet_, alloc(1.0, 1.0, 0.0, 0.0),
                                   {5.0, 0.0, 0.05}, {});
  EXPECT_EQ(fixed.infeasible_reason,
            "served load does not match lambda (constraint 8)");
}

TEST_F(PowerModelTest, CappedCapacity) {
  const auto a = alloc(2.0, 0.0, 1.0, 0.0);
  EXPECT_NEAR(capped_capacity(fleet_, a, 0.9), 0.9 * 10.0 * 3.0, 1e-12);
}

TEST(CappedCapacity, ReadsTheTablesAsTheSpecsAndRejectsBadLevels) {
  // The fleet tables serve the rates: the sum is the specs' expression, in
  // group order, bit for bit; a level outside its group's ladder throws
  // std::out_of_range (a middle group and the last one, whose bad level
  // would read past the tables), a size mismatch std::invalid_argument.
  FleetConfig config;
  config.group_count = 40;
  const Fleet fleet = make_default_fleet(config);
  Allocation a(fleet.group_count());
  for (std::size_t g = 0; g < a.size(); ++g) {
    a[g].level = g % fleet.group(g).spec().level_count();
    a[g].active = 0.37 * static_cast<double>(g + 1);
  }
  double expected = 0.0;
  for (std::size_t g = 0; g < a.size(); ++g) {
    const double rate = fleet.group(g).spec().level(a[g].level).service_rate;
    expected += 0.9 * rate * a[g].active;
  }
  EXPECT_EQ(capped_capacity(fleet, a, 0.9), expected);
  for (const std::size_t bad : {std::size_t{17}, a.size() - 1}) {
    Allocation b = a;
    b[bad].level = fleet.group(bad).spec().level_count();
    EXPECT_THROW(capped_capacity(fleet, b, 0.9), std::out_of_range);
  }
  Allocation short_alloc(a.size() - 1);
  EXPECT_THROW(capped_capacity(fleet, short_alloc, 0.9), std::invalid_argument);
}

TEST(ItPower, AnActiveGroupsLevelMustLieInItsLadder) {
  // dc::it_power_kw reads an active group's level from the tables: a level
  // outside its ladder throws std::out_of_range (a middle group and the
  // last one, whose bad level would read past the tables).  An idle group's
  // level is never read, so any level is accepted there.
  FleetConfig config;
  config.group_count = 40;
  const Fleet fleet = make_default_fleet(config);
  Allocation a(fleet.group_count());
  for (std::size_t g = 0; g < a.size(); ++g) {
    a[g].level = g % fleet.group(g).spec().level_count();
    a[g].active = 1.0;
  }
  for (const std::size_t bad : {std::size_t{17}, a.size() - 1}) {
    Allocation b = a;
    b[bad].level = fleet.group(bad).spec().level_count();
    EXPECT_THROW(it_power_kw(fleet, b), std::out_of_range) << bad;
    b[bad].active = 0.0;
    Allocation idle = a;
    idle[bad].active = 0.0;
    EXPECT_EQ(it_power_kw(fleet, b), it_power_kw(fleet, idle)) << bad;
  }
}

// --- server types: the ladder's per-type market clearing ------------------

std::vector<std::size_t> types_of(const Fleet& fleet) {
  return fleet.tables().group_type;
}

TEST(ServerTypes, EqualSpecsShareATypeWhateverTheServerCount) {
  const auto fleet = make_default_fleet(
      {.total_servers = 8'000, .group_count = 8, .generations = 4});
  // Group 2 loses every server, groups 1 and 6 some of theirs.
  const auto degraded =
      degraded_fleet(fleet, {0, 500, 1'000, 0, 0, 0, 999, 0});
  ASSERT_EQ(degraded.group(2).server_count(), 0u);
  const FleetTables& tables = degraded.tables();
  ASSERT_EQ(tables.type_group.size(), 4u);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(tables.type_group[t], t);
  for (std::size_t g = 0; g < 8; ++g) {
    EXPECT_EQ(tables.group_type[g], g % 4) << "group " << g;
    EXPECT_EQ(degraded.server_counts()[g],
              static_cast<double>(degraded.group(g).server_count()));
  }
}

TEST(ServerTypes, DegradedCopySharesItsBaselinesTables) {
  const auto fleet = make_default_fleet(
      {.total_servers = 8'000, .group_count = 8, .generations = 4});
  const auto degraded =
      degraded_fleet(fleet, {0, 500, 1'000, 0, 0, 0, 999, 0});
  // One tables object and one spec per group, not equal copies; only the
  // counts are the copy's.
  const auto twice = degraded_fleet(degraded, {1, 1, 0, 1, 1, 1, 1, 1});
  EXPECT_EQ(&degraded.tables(), &fleet.tables());
  EXPECT_EQ(&twice.tables(), &fleet.tables());
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    EXPECT_EQ(&degraded.group(g).spec(), &fleet.group(g).spec()) << g;
    EXPECT_EQ(&twice.group(g).spec(), &fleet.group(g).spec()) << g;
  }
  EXPECT_EQ(degraded.server_counts()[1], 500.0);
  EXPECT_EQ(fleet.server_counts()[1], 1'000.0);
  // A fleet built from the same groups builds its own.
  EXPECT_NE(&Fleet(fleet.groups()).tables(), &fleet.tables());

  // The tables are the specs' values, bit for bit.
  const FleetTables& tables = fleet.tables();
  ASSERT_EQ(tables.level_offset.size(), fleet.group_count() + 1);
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    const auto& spec = fleet.group(g).spec();
    ASSERT_EQ(tables.level_offset[g + 1] - tables.level_offset[g],
              spec.level_count());
    EXPECT_EQ(tables.static_kw[g], spec.static_power_kw());
    for (std::size_t k = 0; k < spec.level_count(); ++k) {
      const std::size_t i = tables.level_offset[g] + k;
      EXPECT_EQ(tables.rate[i], spec.level(k).service_rate);
      EXPECT_EQ(tables.dynamic_slope[i], spec.dynamic_slope(k));
      EXPECT_EQ(tables.dynamic_kw[i], spec.level(k).dynamic_power_kw);
    }
  }
}

TEST(ServerTypes, AnyValueTheClearingReadsSplitsAType) {
  const auto reference = ServerSpec::opteron2380();
  const auto fleet_with = [&](const ServerSpec& odd) {
    std::vector<ServerGroup> groups;
    for (std::size_t g = 0; g < 4; ++g) {
      groups.emplace_back(g == 2 ? odd : reference, 10);
    }
    return Fleet(std::move(groups));
  };
  const double static_kw = reference.static_power_kw();
  const auto levels = reference.levels();
  const auto up = [](double x) {
    return std::nextafter(x, std::numeric_limits<double>::infinity());
  };

  // The model name is not part of a type: an exact copy shares it.
  EXPECT_EQ(types_of(fleet_with(ServerSpec("copy", static_kw, levels))),
            (std::vector<std::size_t>{0, 0, 0, 0}));

  std::vector<ServerSpec> variants;
  auto rate = levels;
  rate[1].service_rate = up(rate[1].service_rate);
  variants.emplace_back("rate", static_kw, rate);
  auto dynamic = levels;
  dynamic[2].dynamic_power_kw = up(dynamic[2].dynamic_power_kw);
  variants.emplace_back("dynamic", static_kw, dynamic);
  variants.emplace_back("static", up(static_kw), levels);
  auto fewer = levels;
  fewer.pop_back();
  variants.emplace_back("levels", static_kw, fewer);
  for (const auto& odd : variants) {
    SCOPED_TRACE(odd.model());
    EXPECT_EQ(types_of(fleet_with(odd)),
              (std::vector<std::size_t>{0, 0, 1, 0}));
  }
}

TEST(ServerTypes, DefaultFleetHasOneTypePerGeneration) {
  const auto fleet = make_default_fleet(
      {.total_servers = 40'000, .group_count = 40, .generations = 4});
  const auto types = types_of(fleet);
  ASSERT_EQ(types.size(), 40u);
  for (std::size_t g = 0; g < 40; ++g) EXPECT_EQ(types[g], g % 4);
  EXPECT_EQ(fleet.tables().type_group.size(), 4u);
}

TEST(ServerTypes, DistinctGenerationsGiveOneTypePerGroup) {
  const auto fleet = make_default_fleet(
      {.total_servers = 40'000, .group_count = 40, .generations = 40});
  const auto types = types_of(fleet);
  ASSERT_EQ(types.size(), 40u);
  for (std::size_t g = 0; g < 40; ++g) EXPECT_EQ(types[g], g);
}

}  // namespace
}  // namespace coca::dc

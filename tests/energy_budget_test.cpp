// Tests for REC accounting and the carbon-neutrality budget (Eq. 10).

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "energy/budget.hpp"
#include "energy/rec_ledger.hpp"

namespace coca::energy {
namespace {

using coca::workload::Trace;

TEST(RecLedger, PurchaseAndRetire) {
  RecLedger ledger(100.0);
  EXPECT_DOUBLE_EQ(ledger.balance(), 100.0);
  ledger.retire(30.0);
  EXPECT_DOUBLE_EQ(ledger.balance(), 70.0);
  ledger.purchase(10.0);
  EXPECT_DOUBLE_EQ(ledger.balance(), 80.0);
  EXPECT_DOUBLE_EQ(ledger.purchased_total(), 110.0);
  EXPECT_DOUBLE_EQ(ledger.retired_total(), 30.0);
}

TEST(RecLedger, OverRetireThrows) {
  RecLedger ledger(10.0);
  EXPECT_THROW(ledger.retire(11.0), std::domain_error);
  EXPECT_THROW(ledger.retire(-1.0), std::invalid_argument);
  EXPECT_THROW(ledger.purchase(-1.0), std::invalid_argument);
}

TEST(RecLedger, RetireUpToClamps) {
  RecLedger ledger(10.0);
  EXPECT_DOUBLE_EQ(ledger.retire_up_to(25.0), 10.0);
  EXPECT_DOUBLE_EQ(ledger.balance(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.retire_up_to(5.0), 0.0);
}

TEST(RecLedger, RestoreRefusesInvalidTotalsAndKeepsItsState) {
  RecLedger ledger(10.0);
  ledger.retire(4.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> bad[] = {
      {nan, 0.0}, {5.0, nan}, {inf, 1.0}, {inf, inf}, {3.0, 4.0}, {5.0, -1.0}};
  for (const auto& [purchased, retired] : bad) {
    EXPECT_THROW(ledger.restore(purchased, retired), std::invalid_argument)
        << purchased << " / " << retired;
    EXPECT_EQ(ledger.purchased_total(), 10.0);
    EXPECT_EQ(ledger.retired_total(), 4.0);
  }
  ledger.restore(6.0, 6.0);
  EXPECT_EQ(ledger.balance(), 0.0);
}

TEST(CarbonAccount, NeutralityCheck) {
  CarbonAccount account{.brown_kwh = 90.0, .offsite_kwh = 60.0, .rec_kwh = 40.0};
  EXPECT_TRUE(account.neutral(1.0));   // 90 <= 100
  EXPECT_FALSE(account.neutral(0.8));  // 90 > 80
  EXPECT_DOUBLE_EQ(account.excess(1.0), -10.0);
}

class CarbonBudgetTest : public ::testing::Test {
 protected:
  Trace offsite_{Trace("f", {10.0, 20.0, 30.0, 40.0})};
  CarbonBudget budget_{offsite_, 60.0, 1.0};  // F = 100, Z = 60
};

TEST_F(CarbonBudgetTest, TotalsAndPerSlot) {
  EXPECT_DOUBLE_EQ(budget_.total_allowance(), 160.0);
  EXPECT_DOUBLE_EQ(budget_.rec_per_slot(), 15.0);
  EXPECT_DOUBLE_EQ(budget_.slot_allowance(0), 25.0);
  EXPECT_DOUBLE_EQ(budget_.slot_allowance(3), 55.0);
}

TEST_F(CarbonBudgetTest, AlphaScalesAllowance) {
  CarbonBudget tight(offsite_, 60.0, 0.5);
  EXPECT_DOUBLE_EQ(tight.total_allowance(), 80.0);
  // rec_per_slot() is the *unscaled* Z/J; alpha enters only through the
  // allowance (Eq. 10: y <= alpha (f + z)).  This pins the single-scaling
  // convention shared with CarbonDeficitQueue::update.
  EXPECT_DOUBLE_EQ(tight.rec_per_slot(), 15.0);
  EXPECT_DOUBLE_EQ(tight.slot_allowance(0), 12.5);  // 0.5 * (10 + 15)
  EXPECT_DOUBLE_EQ(tight.slot_allowance(3), 27.5);  // 0.5 * (40 + 15)
}

TEST_F(CarbonBudgetTest, DeficitSeries) {
  const std::vector<double> brown = {30.0, 30.0, 30.0, 30.0};
  const auto deficit = budget_.deficit_series(brown);
  EXPECT_DOUBLE_EQ(deficit[0], 5.0);    // 30 - 25
  EXPECT_DOUBLE_EQ(deficit[3], -25.0);  // 30 - 55
}

TEST_F(CarbonBudgetTest, SatisfiedExactlyAtAllowance) {
  const std::vector<double> at_cap = {40.0, 40.0, 40.0, 40.0};
  EXPECT_TRUE(budget_.satisfied(at_cap));
  const std::vector<double> over = {41.0, 40.0, 40.0, 40.0};
  EXPECT_FALSE(budget_.satisfied(over));
}

TEST_F(CarbonBudgetTest, SizeMismatchThrows) {
  const std::vector<double> wrong = {1.0};
  EXPECT_THROW(budget_.deficit_series(wrong), std::invalid_argument);
  EXPECT_THROW(budget_.satisfied(wrong), std::invalid_argument);
}

TEST_F(CarbonBudgetTest, RescaledKeepsShape) {
  const CarbonBudget scaled = budget_.rescaled_to_allowance(320.0);
  EXPECT_NEAR(scaled.total_allowance(), 320.0, 1e-9);
  // Proportions preserved: offsite doubled, RECs doubled.
  EXPECT_NEAR(scaled.offsite().total(), 200.0, 1e-9);
  EXPECT_NEAR(scaled.recs_kwh(), 120.0, 1e-9);
}

TEST_F(CarbonBudgetTest, WithMixPreservesTotal) {
  const CarbonBudget recs_heavy = budget_.with_mix(0.25);
  EXPECT_NEAR(recs_heavy.total_allowance(), budget_.total_allowance(), 1e-9);
  EXPECT_NEAR(recs_heavy.offsite().total(), 40.0, 1e-9);
  EXPECT_NEAR(recs_heavy.recs_kwh(), 120.0, 1e-9);
  EXPECT_THROW(budget_.with_mix(1.5), std::invalid_argument);
}

TEST(CarbonBudget, ConstructionValidation) {
  const Trace f("f", {1.0});
  EXPECT_THROW(CarbonBudget(f, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(CarbonBudget(f, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(CarbonBudget(Trace("e", {}), 1.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace coca::energy

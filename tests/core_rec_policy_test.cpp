// Tests for dynamic real-time REC procurement (the Sec. 2.2 purchasing
// alternative): the drift-plus-penalty threshold rule, caps, ledger
// accounting, and end-to-end neutrality with little or no up-front Z.

#include "core/rec_policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/deficit_queue.hpp"
#include "energy/budget.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"

namespace coca::core {
namespace {

using coca::workload::Trace;

sim::Scenario small_scenario(std::size_t hours = 400) {
  sim::ScenarioConfig config;
  config.hours = hours;
  config.fleet.total_servers = 20'000;
  config.fleet.group_count = 8;
  config.peak_rate = 100'000.0;
  return sim::build_scenario(config);
}

CocaConfig base_config(const sim::Scenario& s, double v, double rec_per_slot) {
  CocaConfig config;
  config.weights = s.weights;
  config.schedule = VSchedule::constant(v);
  config.alpha = s.budget.alpha();
  config.rec_per_slot = rec_per_slot;
  return config;
}

RecMarketConfig flat_market(std::size_t hours, double price,
                            double per_slot = 2'000.0, double total = 0.0) {
  return RecMarketConfig{Trace("rec", std::vector<double>(hours, price)),
                         total, per_slot};
}

TEST(RecPolicy, ThresholdRule) {
  const auto s = small_scenario(100);
  const double v = 1'000.0;
  DynamicRecCocaController controller(
      s.fleet, base_config(s, v, 0.0), flat_market(100, 0.01));
  // alpha = 1: buy iff q > V * c = 1000 * 0.01 = 10 kWh.
  EXPECT_DOUBLE_EQ(controller.purchase_decision(0, 5.0), 0.0);
  EXPECT_GT(controller.purchase_decision(0, 50.0), 0.0);
  // Exactly at the threshold: no purchase (strict inequality).
  EXPECT_DOUBLE_EQ(controller.purchase_decision(0, 10.0), 0.0);
}

TEST(RecPolicy, PurchaseRespectsPerSlotAndQueueCaps) {
  const auto s = small_scenario(100);
  DynamicRecCocaController controller(
      s.fleet, base_config(s, 1.0, 0.0), flat_market(100, 0.001, 500.0));
  // Queue can absorb only q/alpha.
  EXPECT_DOUBLE_EQ(controller.purchase_decision(0, 200.0), 200.0);
  // Liquidity cap binds for deep queues.
  EXPECT_DOUBLE_EQ(controller.purchase_decision(0, 5'000.0), 500.0);
}

TEST(RecPolicy, TotalBudgetCapRespected) {
  const auto s = small_scenario(200);
  DynamicRecCocaController controller(
      s.fleet, base_config(s, 1.0, 0.0),
      flat_market(200, 0.001, 10'000.0, 15'000.0));
  // Run the controller; purchases must never exceed the total cap.
  for (std::size_t t = 0; t < 200; ++t) {
    const opt::SlotInput input{s.env.workload[t], s.env.onsite_kw[t],
                               s.env.price[t]};
    const auto plan = controller.plan(t, input);
    controller.observe(t, plan.outcome, s.env.offsite_kwh[t]);
  }
  EXPECT_LE(controller.total_purchased_kwh(), 15'000.0 + 1e-6);
}

TEST(RecPolicy, LedgerAndSpendConsistent) {
  const auto s = small_scenario(150);
  const double price = 0.004;
  DynamicRecCocaController controller(
      s.fleet, base_config(s, 1.0, 0.0), flat_market(150, price));
  obs::Registry registry;
  const obs::GlobalRegistryScope registry_scope(&registry);
  std::int64_t buying_slots = 0;
  for (std::size_t t = 0; t < 150; ++t) {
    const opt::SlotInput input{s.env.workload[t], s.env.onsite_kw[t],
                               s.env.price[t]};
    const auto plan = controller.plan(t, input);
    const double purchased_before = controller.total_purchased_kwh();
    controller.observe(t, plan.outcome, s.env.offsite_kwh[t]);
    if (controller.total_purchased_kwh() > purchased_before) ++buying_slots;
  }
  // Everything purchased is retired; spend = purchased * flat price.
  EXPECT_DOUBLE_EQ(controller.ledger().balance(), 0.0);
  EXPECT_NEAR(controller.total_spend(),
              controller.total_purchased_kwh() * price, 1e-9);
  // Every slot that grew the ledger counted exactly one purchase.
  EXPECT_GT(buying_slots, 0);
  EXPECT_EQ(registry.counter_value("rec.purchases"), buying_slots);
}

TEST(RecPolicy, PurchasesReplaceUpfrontBlockForNeutrality) {
  // Fully dynamic procurement (Z = 0 up-front): brown usage minus offsite
  // minus dynamic purchases must satisfy the neutrality accounting.
  const auto s = small_scenario(400);
  DynamicRecCocaController controller(
      s.fleet, base_config(s, 100.0, 0.0), flat_market(400, 0.006));
  double brown = 0.0;
  for (std::size_t t = 0; t < 400; ++t) {
    const opt::SlotInput input{s.env.workload[t], s.env.onsite_kw[t],
                               s.env.price[t]};
    const auto plan = controller.plan(t, input);
    brown += plan.outcome.brown_kwh;
    controller.observe(t, plan.outcome, s.env.offsite_kwh[t]);
  }
  energy::CarbonAccount account{brown, s.budget.offsite().total(),
                                controller.total_purchased_kwh()};
  // The queue bounds the residual (Eq. 27): usage <= offsets + q(end).
  EXPECT_LE(account.excess(s.budget.alpha()),
            controller.queue_length() + 1e-6);
  EXPECT_GT(controller.total_purchased_kwh(), 0.0);
}

TEST(RecPolicy, CheapMarketBuysMoreThanExpensiveMarket) {
  const auto s = small_scenario(300);
  auto run_with_price = [&](double price) {
    DynamicRecCocaController controller(
        s.fleet, base_config(s, 100.0, 0.0), flat_market(300, price));
    for (std::size_t t = 0; t < 300; ++t) {
      const opt::SlotInput input{s.env.workload[t], s.env.onsite_kw[t],
                                 s.env.price[t]};
      const auto plan = controller.plan(t, input);
      controller.observe(t, plan.outcome, s.env.offsite_kwh[t]);
    }
    return controller.total_purchased_kwh();
  };
  EXPECT_GE(run_with_price(0.001), run_with_price(0.05));
}

TEST(RecPolicy, PurchasesDrainTheQueue) {
  const auto s = small_scenario(100);
  DynamicRecCocaController with_market(
      s.fleet, base_config(s, 1.0, 0.0), flat_market(100, 0.0001, 50'000.0));
  CocaController without_market(s.fleet, base_config(s, 1.0, 0.0));
  for (std::size_t t = 0; t < 100; ++t) {
    const opt::SlotInput input{s.env.workload[t], s.env.onsite_kw[t],
                               s.env.price[t]};
    const auto plan_a = with_market.plan(t, input);
    with_market.observe(t, plan_a.outcome, s.env.offsite_kwh[t]);
    const auto plan_b = without_market.plan(t, input);
    without_market.observe(t, plan_b.outcome, s.env.offsite_kwh[t]);
  }
  // A near-free REC market keeps the deficit queue (weakly) shorter.
  EXPECT_LE(with_market.queue_length(), without_market.queue_length() + 1e-9);
}

TEST(RecPolicy, RecConventionEndToEnd) {
  // Regression for the alpha-scaling drift between Eq. (10) and Eq. (17).
  // The pinned convention: every REC quantity — the up-front block z = Z/J
  // and each dynamic purchase b — enters the deficit queue as *unscaled*
  // kWh, and alpha multiplies the offsets exactly once, inside
  // CarbonDeficitQueue::update.  Exercised here with alpha = 0.5 so a
  // mis-scaling (alpha applied twice, or never) shifts every number below.
  const double alpha = 0.5;

  // (1) Budget side of Eq. (10): rec_per_slot() is raw Z/J; alpha appears
  //     only in the allowance alpha * (f + z).
  const Trace offsite("f", {4.0, 4.0});
  const energy::CarbonBudget budget(offsite, 12.0, alpha);
  EXPECT_DOUBLE_EQ(budget.rec_per_slot(), 6.0);
  EXPECT_DOUBLE_EQ(budget.slot_allowance(0), alpha * (4.0 + 6.0));

  // (2) Queue side of Eq. (17): both offsets scaled by alpha, uniformly.
  //     q1 = [0 + 8 - 0.5 * (4 + 6)]^+ = 3.
  CarbonDeficitQueue queue;
  queue.update(units::KiloWattHours{8.0}, units::KiloWattHours{4.0}, alpha,
               units::KiloWattHours{6.0});
  EXPECT_DOUBLE_EQ(queue.length(), 8.0 - alpha * (4.0 + 6.0));

  // (3) Dynamic purchases ride the same channel: b kWh bought drops q by
  //     exactly alpha * b, and the policy never buys more than q / alpha.
  const auto s = small_scenario(50);
  CocaConfig config = base_config(s, 1.0, 0.0);
  config.alpha = alpha;
  opt::SlotOutcome brown_only;
  brown_only.brown_kwh = 1'000.0;
  brown_only.feasible = true;

  DynamicRecCocaController capped(s.fleet, config, flat_market(50, 0.01, 100.0));
  capped.observe(0, brown_only, 0.0);  // q = 1000, then buys the 100 cap
  EXPECT_DOUBLE_EQ(capped.total_purchased_kwh(), 100.0);
  EXPECT_DOUBLE_EQ(capped.queue_length(), 1'000.0 - alpha * 100.0);

  DynamicRecCocaController deep(s.fleet, config,
                                flat_market(50, 0.01, 10'000.0));
  deep.observe(0, brown_only, 0.0);  // cap q / alpha = 2000 binds
  EXPECT_DOUBLE_EQ(deep.total_purchased_kwh(), 1'000.0 / alpha);
  EXPECT_DOUBLE_EQ(deep.queue_length(), 0.0);

  // (4) Threshold in the same scaling: buy iff alpha * q > V * c.
  //     V = 1, c = 0.01: q = 0.02 sits exactly at threshold -> no purchase.
  EXPECT_DOUBLE_EQ(capped.purchase_decision(1, 0.02), 0.0);
  EXPECT_GT(capped.purchase_decision(1, 0.03), 0.0);
}

TEST(RecPolicy, ConstructionValidation) {
  const auto s = small_scenario(50);
  EXPECT_THROW(DynamicRecCocaController(
                   s.fleet, base_config(s, 1.0, 0.0),
                   RecMarketConfig{Trace(), 0.0, 100.0}),
               std::invalid_argument);
  EXPECT_THROW(DynamicRecCocaController(
                   s.fleet, base_config(s, 1.0, 0.0),
                   RecMarketConfig{Trace("p", {0.01}), 0.0, 0.0}),
               std::invalid_argument);
  // The controller plans with the ladder only: a GSD config must not be
  // silently planned with the wrong engine.
  CocaConfig gsd = base_config(s, 1.0, 0.0);
  gsd.engine = P3Engine::kGsd;
  EXPECT_THROW(DynamicRecCocaController(s.fleet, gsd,
                                        RecMarketConfig{Trace("p", {0.01}),
                                                        0.0, 100.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace coca::core

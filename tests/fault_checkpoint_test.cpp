// coca-ckpt-v2 checkpoint/restore (core/checkpoint.hpp): queue round-trips,
// constant blob size, crash/restart through the simulator under static and
// dynamic REC policies (cadence 1 = bit-identical, cadence k = exact
// rollback semantics), and rejection of corrupt or mismatched blobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/coca_controller.hpp"
#include "core/rec_policy.hpp"
#include "fault/schedule.hpp"
#include "sim/simulator.hpp"

namespace coca {
namespace {

using fault::Schedule;

constexpr std::size_t kSlots = 30;

sim::Environment make_env(std::size_t slots = kSlots) {
  std::vector<double> lambda(slots), price(slots), offsite(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    lambda[t] = 100.0 + 6.0 * static_cast<double>((t * 5) % 7);
    price[t] = 0.03 + 0.012 * static_cast<double>((t * 3) % 5);
    offsite[t] = 0.4 * static_cast<double>(t % 4);
  }
  const std::vector<double> zero(slots, 0.0);
  return sim::Environment{workload::Trace("lambda", lambda),
                          workload::Trace("lambda", lambda),
                          workload::Trace("onsite", zero),
                          workload::Trace("price", price),
                          workload::Trace("offsite", offsite)};
}

core::CocaConfig coca_config() {
  core::CocaConfig config;
  config.schedule = core::VSchedule::constant(30.0);
  config.rec_per_slot = 0.5;  // static pre-purchased block
  return config;
}

core::RecMarketConfig market_config(std::size_t slots = kSlots) {
  std::vector<double> spot(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    spot[t] = 0.005 + 0.004 * static_cast<double>((t * 7) % 3);
  }
  core::RecMarketConfig market;
  market.spot_price = workload::Trace("spot", spot);
  market.max_total_kwh = 500.0;
  market.max_per_slot_kwh = 5.0;
  return market;
}

void expect_metrics_bitwise_equal(const sim::Metrics& a,
                                  const sim::Metrics& b) {
  ASSERT_EQ(a.slot_count(), b.slot_count());
  EXPECT_EQ(a.cost_series(), b.cost_series());
  EXPECT_EQ(a.brown_series(), b.brown_series());
  EXPECT_EQ(a.queue_series(), b.queue_series());
  EXPECT_EQ(a.delay_cost_series(), b.delay_cost_series());
}

// --- Direct round-trips (no simulator) ---

TEST(Checkpoint, QueueStateRoundTripsBitwise) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 8);
  core::CocaController source(fleet, coca_config());
  // Drive the queue through a few updates with synthetic outcomes.
  for (std::size_t t = 0; t < 7; ++t) {
    (void)source.plan(t, {100.0, 0.0, 0.05});
    opt::SlotOutcome billed;
    billed.brown_kwh = 3.0 + 0.7 * static_cast<double>(t);
    billed.feasible = true;
    source.observe(t, billed, 0.9);
  }
  const std::string blob = source.checkpoint(7);
  EXPECT_NE(blob.find(core::kCheckpointSchema), std::string::npos);

  core::CocaController restored(fleet, coca_config());
  restored.restore(blob);
  EXPECT_EQ(restored.queue().length(), source.queue().length());  // bitwise

  // Restore-then-run: both controllers agree bitwise from here on.
  for (std::size_t t = 7; t < 12; ++t) {
    const auto a = source.plan(t, {110.0, 0.0, 0.04});
    const auto b = restored.plan(t, {110.0, 0.0, 0.04});
    ASSERT_EQ(a.alloc.size(), b.alloc.size());
    for (std::size_t g = 0; g < a.alloc.size(); ++g) {
      EXPECT_EQ(a.alloc[g].level, b.alloc[g].level);
      EXPECT_EQ(a.alloc[g].active, b.alloc[g].active);
      EXPECT_EQ(a.alloc[g].load, b.alloc[g].load);
    }
    opt::SlotOutcome billed;
    billed.brown_kwh = 2.0;
    billed.feasible = true;
    source.observe(t, billed, 0.5);
    restored.observe(t, billed, 0.5);
    EXPECT_EQ(source.queue().length(), restored.queue().length());
  }
}

TEST(Checkpoint, DynamicRecStateRoundTripsBitwise) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 8);
  core::DynamicRecCocaController source(fleet, coca_config(), market_config());
  for (std::size_t t = 0; t < 9; ++t) {
    (void)source.plan(t, {100.0, 0.0, 0.05});
    opt::SlotOutcome billed;
    billed.brown_kwh = 4.0 + static_cast<double>(t % 3);
    billed.feasible = true;
    source.observe(t, billed, 0.2);
  }
  ASSERT_GT(source.total_purchased_kwh(), 0.0);  // the market actually traded

  core::DynamicRecCocaController restored(fleet, coca_config(),
                                          market_config());
  restored.restore(source.checkpoint(9));
  EXPECT_EQ(restored.queue_length(), source.queue_length());  // bitwise
  EXPECT_EQ(restored.total_spend(), source.total_spend());
  EXPECT_EQ(restored.total_purchased_kwh(), source.total_purchased_kwh());
  EXPECT_EQ(restored.ledger().retired_total(), source.ledger().retired_total());
}

// A blob holds the controller's cross-slot state, never a per-slot record:
// after 3000 observed slots it is as short as after one, and restoring it
// still continues the run bit for bit.
template <typename Controller>
void expect_constant_size_blob_continues_the_run(Controller& source,
                                                 Controller& restored) {
  constexpr std::size_t kObserved = 3000;
  for (std::size_t t = 0; t < kObserved; ++t) {
    (void)source.plan(t, {100.0, 0.0, 0.05});
    opt::SlotOutcome billed;
    billed.brown_kwh = 3.0 + 0.5 * static_cast<double>(t % 5);
    billed.feasible = true;
    source.observe(t, billed, 0.9);
  }
  ASSERT_GT(source.diagnostic_queue_length(), 0.0);
  const std::string blob = source.checkpoint(kObserved);
  EXPECT_LT(blob.size(), 256u) << blob;

  restored.restore(blob);
  EXPECT_EQ(restored.diagnostic_queue_length(),
            source.diagnostic_queue_length());
  for (std::size_t t = kObserved; t < kObserved + 8; ++t) {
    const opt::SlotInput input{110.0 + static_cast<double>(t % 3), 0.0, 0.04};
    const auto a = source.plan(t, input);
    const auto b = restored.plan(t, input);
    ASSERT_EQ(a.alloc.size(), b.alloc.size());
    for (std::size_t g = 0; g < a.alloc.size(); ++g) {
      EXPECT_EQ(a.alloc[g].level, b.alloc[g].level);
      EXPECT_EQ(a.alloc[g].active, b.alloc[g].active);
      EXPECT_EQ(a.alloc[g].load, b.alloc[g].load);
    }
    EXPECT_EQ(a.outcome.total_cost, b.outcome.total_cost);
    source.observe(t, a.outcome, 0.5);
    restored.observe(t, b.outcome, 0.5);
    EXPECT_EQ(source.diagnostic_queue_length(),
              restored.diagnostic_queue_length());
  }
}

TEST(Checkpoint, BlobSizeDoesNotGrowWithSlots) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 8);
  {
    core::CocaController source(fleet, coca_config());
    core::CocaController restored(fleet, coca_config());
    expect_constant_size_blob_continues_the_run(source, restored);
  }
  {
    constexpr std::size_t kMarketSlots = 3100;
    core::DynamicRecCocaController source(fleet, coca_config(),
                                          market_config(kMarketSlots));
    core::DynamicRecCocaController restored(fleet, coca_config(),
                                            market_config(kMarketSlots));
    expect_constant_size_blob_continues_the_run(source, restored);
    EXPECT_GT(source.total_purchased_kwh(), 0.0);
    EXPECT_EQ(restored.total_spend(), source.total_spend());
  }
}

TEST(Checkpoint, RejectsCorruptAndMismatchedBlobs) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(2, 4);
  core::CocaController controller(fleet, coca_config());
  EXPECT_THROW(controller.restore("not json"), std::runtime_error);
  EXPECT_THROW(controller.restore("{}"), std::runtime_error);
  EXPECT_THROW(
      controller.restore(
          R"({"schema":"coca-ckpt-v0","controller":"COCA","slot":0,"queue":{"q":0}})"),
      std::runtime_error);
  // A v1 blob (it carried the whole q history) is refused: blobs never
  // leave the process that wrote them, so only the current schema is read.
  EXPECT_THROW(
      controller.restore(
          R"({"schema":"coca-ckpt-v1","controller":"COCA","slot":2,"queue":{"q":4,"history":[3,4]}})"),
      std::runtime_error);

  // A blob from a different controller type is refused.
  core::DynamicRecCocaController other(fleet, coca_config(), market_config());
  EXPECT_THROW(controller.restore(other.checkpoint(0)), std::runtime_error);

  // Invalid restored state (negative queue) is refused by the queue itself.
  EXPECT_THROW(
      controller.restore(
          R"({"schema":"coca-ckpt-v2","controller":"COCA","slot":0,"queue":{"q":-1}})"),
      std::invalid_argument);
  EXPECT_EQ(controller.queue().length(), 0.0);

  // A negative REC spend is refused before any state changes.
  const auto dynamic_blob = [](const char* q, const char* spend) {
    std::string blob =
        R"({"schema":"coca-ckpt-v2","controller":"COCA+dynamic-RECs",)";
    blob += R"("slot":2,"queue":{"q":)";
    blob += q;
    blob += R"(},"ledger":{"purchased":3,"retired":3},"spend":)";
    blob += spend;
    blob += "}";
    return blob;
  };
  other.restore(dynamic_blob("5", "0.25"));
  EXPECT_THROW(other.restore(dynamic_blob("7", "-0.5")),
               std::invalid_argument);
  EXPECT_EQ(other.queue_length(), 5.0);
  EXPECT_EQ(other.total_spend(), 0.25);
  EXPECT_EQ(other.total_purchased_kwh(), 3.0);
}

// --- Crash/restart through the simulator ---

TEST(CheckpointSim, CadenceOneCrashIsBitIdenticalUnderStaticRecs) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();

  core::CocaController clean_ctrl(fleet, coca_config());
  const auto clean = sim::run_simulation(fleet, env, clean_ctrl, {});

  Schedule schedule;
  schedule.crashes = {{.slot = 13}};
  schedule.checkpoint_every = 1;  // no slots lost
  core::CocaController crash_ctrl(fleet, coca_config());
  sim::SimOptions options;
  options.faults = &schedule;
  const auto crashed =
      sim::run_simulation(fleet, env, crash_ctrl, {}, options);

  EXPECT_EQ(crashed.faults.crash_restarts, 1);
  // Initial blob + one per slot.
  EXPECT_EQ(crashed.faults.checkpoints_taken,
            static_cast<std::int64_t>(kSlots) + 1);
  expect_metrics_bitwise_equal(clean.metrics, crashed.metrics);
}

TEST(CheckpointSim, CadenceOneCrashIsBitIdenticalUnderDynamicRecs) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();

  core::DynamicRecCocaController clean_ctrl(fleet, coca_config(),
                                            market_config());
  const auto clean = sim::run_simulation(fleet, env, clean_ctrl, {});
  ASSERT_GT(clean.metrics.total_rec_cost(), 0.0);  // dynamic spend billed

  Schedule schedule;
  schedule.crashes = {{.slot = 9}, {.slot = 21}};
  schedule.checkpoint_every = 1;
  core::DynamicRecCocaController crash_ctrl(fleet, coca_config(),
                                            market_config());
  sim::SimOptions options;
  options.faults = &schedule;
  const auto crashed =
      sim::run_simulation(fleet, env, crash_ctrl, {}, options);

  EXPECT_EQ(crashed.faults.crash_restarts, 2);
  expect_metrics_bitwise_equal(clean.metrics, crashed.metrics);
  EXPECT_EQ(clean.metrics.total_rec_cost(), crashed.metrics.total_rec_cost());
}

TEST(CheckpointSim, CadenceKCrashRollsBackExactlyToTheLastCheckpoint) {
  const dc::Fleet fleet = dc::make_homogeneous_fleet(3, 10);
  const sim::Environment env = make_env();

  core::CocaController clean_ctrl(fleet, coca_config());
  const auto clean = sim::run_simulation(fleet, env, clean_ctrl, {});

  // Cadence 4: blobs capture state up to slots 4, 8, 12 (written after
  // slots 3, 7, 11).  Crashing before slot 14 restores checkpoint(12) —
  // the end-of-slot-11 queue — losing slots 12 and 13.
  Schedule schedule;
  schedule.crashes = {{.slot = 14}};
  schedule.checkpoint_every = 4;
  core::CocaController crash_ctrl(fleet, coca_config());
  sim::SimOptions options;
  options.faults = &schedule;
  const auto crashed =
      sim::run_simulation(fleet, env, crash_ctrl, {}, options);

  const auto& clean_q = clean.metrics.queue_series();
  const auto& crash_q = crashed.metrics.queue_series();
  // Identical up to the crash...
  for (std::size_t t = 0; t < 14; ++t) EXPECT_EQ(clean_q[t], crash_q[t]);
  // ...then slot 14 evolves from the restored (end-of-slot-11) queue: exact
  // Eq. 17 arithmetic on the rolled-back state.  alpha = 1, z = 0.5/slot.
  const double alpha = 1.0;
  const double expected = std::max(
      0.0, clean_q[11] + crashed.metrics.brown_series()[14] -
               alpha * (env.offsite_kwh[14] + 0.5));
  EXPECT_DOUBLE_EQ(crash_q[14], expected);
  // Bounded drift, not divergence: the restored queue differs from the
  // uninterrupted one by at most the lost window's update magnitude.
  const double lost_update = std::abs(clean_q[13] - clean_q[11]);
  EXPECT_LE(std::abs(crash_q[14] - clean_q[14]),
            lost_update + std::abs(crashed.metrics.brown_series()[14] -
                                   clean.metrics.brown_series()[14]));
}

}  // namespace
}  // namespace coca

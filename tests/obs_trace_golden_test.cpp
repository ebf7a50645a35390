// Golden-file tests for the per-slot JSONL trace: the trace of a run must be
// byte-identical across thread counts once timing fields are masked.  Three
// parallelism layers are exercised:
//   1. multi-chain GSD inside a single simulation (GsdConfig::threads);
//   2. the SweepRunner fan-out, one trace writer per sweep point;
//   3. the background AsyncTraceSink's writer thread (same bytes as the
//      synchronous path, at any GSD thread count).
// The span-profile footer rides the same contract: its paths and counts are
// deterministic, its *_ms fields mask away.  This is the observability
// layer's half of the repo-wide determinism contract (see
// tests/parallel_determinism_test.cpp for the numeric half).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/coca_controller.hpp"
#include "obs/async_sink.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

namespace coca::sim {
namespace {

ScenarioConfig tiny_config(std::size_t hours) {
  ScenarioConfig config;
  config.hours = hours;
  config.fleet.total_servers = 2'000;
  config.fleet.group_count = 4;
  config.peak_rate = 10'000.0;
  return config;
}

core::CocaConfig gsd_config(const Scenario& scenario, int chains,
                            int threads) {
  core::CocaConfig config;
  config.weights = scenario.weights;
  config.schedule = core::VSchedule::constant(1e4);
  config.alpha = scenario.budget.alpha();
  config.rec_per_slot = scenario.budget.rec_per_slot();
  config.engine = core::P3Engine::kGsd;
  config.gsd.iterations = 120;
  config.gsd.chains = chains;
  config.gsd.threads = threads;
  config.gsd.seed = 9;
  return config;
}

/// Run COCA (GSD engine, `chains` chains on `threads` workers) over the
/// scenario and return the masked JSONL trace.
std::string traced_gsd_run(const Scenario& scenario, int chains, int threads) {
  core::CocaController controller(scenario.fleet,
                                  gsd_config(scenario, chains, threads));
  obs::SlotTraceWriter trace;
  SimOptions options;
  options.trace = &trace;
  run_simulation(scenario.fleet, scenario.env, controller, scenario.weights,
                 options);
  return obs::mask_timing_fields(trace.to_jsonl());
}

/// Same run, traced through the background AsyncTraceSink; returns the
/// masked bytes the writer thread emitted.
std::string async_traced_gsd_run(const Scenario& scenario, int chains,
                                 int threads, std::size_t ring) {
  core::CocaController controller(scenario.fleet,
                                  gsd_config(scenario, chains, threads));
  std::ostringstream out;
  {
    obs::AsyncSinkOptions sink_options;
    sink_options.ring_capacity = ring;
    obs::AsyncTraceSink sink(out, sink_options);
    SimOptions options;
    options.trace = &sink;
    run_simulation(scenario.fleet, scenario.env, controller, scenario.weights,
                   options);
  }  // destruction drains and flushes
  return obs::mask_timing_fields(out.str());
}

/// Run with the span profiler installed and return the masked trace with
/// the span-profile document appended as the footer line.
std::string span_profiled_gsd_run(const Scenario& scenario, int chains,
                                  int threads) {
  obs::SpanProfiler profiler;
  obs::SpanProfilerScope scope(&profiler);
  core::CocaController controller(scenario.fleet,
                                  gsd_config(scenario, chains, threads));
  obs::SlotTraceWriter trace;
  SimOptions options;
  options.trace = &trace;
  run_simulation(scenario.fleet, scenario.env, controller, scenario.weights,
                 options);
  trace.set_footer(profiler.to_json());
  return obs::mask_timing_fields(trace.to_jsonl());
}

TEST(ObsTraceGolden, GsdTraceBitIdenticalAcrossThreadCounts) {
  const auto scenario = build_scenario(tiny_config(40));
  const std::string serial = traced_gsd_run(scenario, 4, 1);
  const std::string parallel = traced_gsd_run(scenario, 4, 4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);  // byte-for-byte, timing masked
}

TEST(ObsTraceGolden, TraceHasOneOrderedRecordPerSlot) {
  const auto scenario = build_scenario(tiny_config(25));
  core::CocaConfig config;
  config.weights = scenario.weights;
  config.schedule = core::VSchedule::constant(1e4);
  config.alpha = scenario.budget.alpha();
  config.rec_per_slot = scenario.budget.rec_per_slot();
  core::CocaController controller(scenario.fleet, config);
  obs::SlotTraceWriter trace;
  SimOptions options;
  options.trace = &trace;
  const auto result = run_simulation(scenario.fleet, scenario.env, controller,
                                     scenario.weights, options);
  ASSERT_EQ(trace.size(), 25u);
  for (std::size_t t = 0; t < trace.size(); ++t) {
    EXPECT_EQ(trace.slots()[t].t, t);
  }
  // The trace's cost breakdown reconciles with the billed metrics.
  double traced_total = 0.0;
  for (const auto& slot : trace.slots()) traced_total += slot.total_cost;
  EXPECT_NEAR(traced_total, result.metrics.total_cost(),
              1e-9 * std::abs(traced_total) + 1e-12);
}

TEST(ObsTraceGolden, AsyncSinkBytesMatchSyncPathAcrossThreadCounts) {
  // The async writer thread must be invisible in the output: same bytes as
  // the in-memory writer, whether GSD ran on 1 or 4 workers, even through a
  // ring small enough to engage the kBlock backpressure path.
  const auto scenario = build_scenario(tiny_config(30));
  const std::string sync_trace = traced_gsd_run(scenario, 4, 1);
  ASSERT_FALSE(sync_trace.empty());
  EXPECT_EQ(async_traced_gsd_run(scenario, 4, 1, 4), sync_trace);
  EXPECT_EQ(async_traced_gsd_run(scenario, 4, 4, 4), sync_trace);
  EXPECT_EQ(async_traced_gsd_run(scenario, 4, 4, 1024), sync_trace);
}

TEST(ObsTraceGolden, SpanProfileFooterBitIdenticalAcrossThreadCounts) {
  // Span paths and counts are a pure function of the run; only the *_ms
  // fields are wall-clock, and the mask hides them.  The profile rides the
  // trace as its footer line, so one byte comparison covers both.
  const auto scenario = build_scenario(tiny_config(30));
  const std::string serial = span_profiled_gsd_run(scenario, 4, 1);
  const std::string parallel = span_profiled_gsd_run(scenario, 4, 4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // The footer names the pipeline stages with their hierarchy.
  const std::string footer = serial.substr(serial.rfind("{\"schema\":"));
  EXPECT_NE(footer.find("coca-span-profile-v1"), std::string::npos);
  EXPECT_NE(footer.find("\"slot\""), std::string::npos);
  EXPECT_NE(footer.find("slot/gsd_chain[3]"), std::string::npos);
  EXPECT_NE(footer.find("slot/gsd_chain[0]/sweep_iter"), std::string::npos);
  // Every load-LP solve opens one `load_lp` span: candidate solves sit
  // under `sweep_iter`.
  EXPECT_NE(footer.find("slot/gsd_chain[0]/sweep_iter/load_lp"),
            std::string::npos);
  // Chain count per slot: one span per chain per slot, at any thread count.
  // The chain's initial solve (line 1) rides the same invariant: exactly one
  // per chain per slot, since line 8 returns the kept solve unsolved.
  const std::string chain_span =
      "\"path\":\"slot/gsd_chain[0]\",\"count\":30";
  EXPECT_NE(footer.find(chain_span), std::string::npos) << footer;
  const std::string initial_span =
      "\"path\":\"slot/gsd_chain[0]/load_lp\",\"count\":30";
  EXPECT_NE(footer.find(initial_span), std::string::npos) << footer;
}

TEST(ObsTraceGolden, SweepTracesBitIdenticalAcrossThreadCounts) {
  // Each sweep point gets its own writer; the concatenated masked traces
  // must not depend on how many workers executed the sweep.
  const auto scenario = build_scenario(tiny_config(20));
  const std::vector<double> v_values = {1.0, 1e3, 1e6};
  auto run_sweep = [&](std::size_t threads) {
    SweepRunner runner({.threads = threads});
    const auto traces = runner.map(v_values, [&](double v) {
      core::CocaConfig config;
      config.weights = scenario.weights;
      config.schedule = core::VSchedule::constant(v);
      config.alpha = scenario.budget.alpha();
      config.rec_per_slot = scenario.budget.rec_per_slot();
      core::CocaController controller(scenario.fleet, config);
      obs::SlotTraceWriter trace;
      SimOptions options;
      options.trace = &trace;
      run_simulation(scenario.fleet, scenario.env, controller,
                     scenario.weights, options);
      return obs::mask_timing_fields(trace.to_jsonl());
    });
    std::string all;
    for (const auto& t : traces) all += t;
    return all;
  };
  const std::string serial = run_sweep(1);
  const std::string parallel = run_sweep(4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace coca::sim

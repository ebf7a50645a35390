// Micro performance benchmarks (google-benchmark) for the hot paths:
// the load balancer, the ladder slot solver, GSD iterations (the Sec. 5.2.3
// timing claim), the PS-queue event loop and the deficit-queue update —
// plus a parallel-sweep scaling report (printed before the benchmark table)
// that times a 100-point V-sweep through sim::SweepRunner at 1 thread vs
// COCA_THREADS (default 8) threads and verifies the two runs produce
// bit-identical metrics.

#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <iostream>
#include <map>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/coca_controller.hpp"
#include "core/deficit_queue.hpp"
#include "des/job_source.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "opt/gsd.hpp"
#include "opt/ladder_solver.hpp"
#include "opt/load_lp.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "util/rng.hpp"

namespace {

using namespace coca;

/// `distinct_specs` gives every group its own generation, so no two groups
/// share a server type (the ladder's per-type clearing then shares nothing).
const sim::Scenario& snapshot_scenario(std::size_t groups,
                                       bool distinct_specs = false) {
  static std::map<std::pair<std::size_t, bool>, sim::Scenario> cache;
  const auto key = std::make_pair(groups, distinct_specs);
  auto it = cache.find(key);
  if (it == cache.end()) {
    sim::ScenarioConfig config;
    config.hours = 200;
    config.fleet.group_count = groups;
    if (distinct_specs) config.fleet.generations = groups;
    it = cache.emplace(key, sim::build_scenario(config)).first;
  }
  return it->second;
}

opt::SlotInput snapshot_input(const sim::Scenario& scenario) {
  return {scenario.env.workload[150], scenario.env.onsite_kw[150],
          scenario.env.price[150]};
}

void BM_LoadBalance(benchmark::State& state) {
  const auto& scenario = snapshot_scenario(state.range(0));
  const auto input = snapshot_input(scenario);
  opt::SlotWeights weights = scenario.weights;
  weights.V = 1.0;
  auto alloc = opt::all_on_max(scenario.fleet, input.lambda, weights.gamma);
  for (auto _ : state) {
    auto working = alloc;
    benchmark::DoNotOptimize(
        opt::balance_loads(scenario.fleet, working, input, weights));
  }
}
BENCHMARK(BM_LoadBalance)->Arg(50)->Arg(200);

// Args: group count, and 1 for an all-distinct-spec fleet (one server type
// per group) vs 0 for the default four generations.
void BM_LadderSolveSlot(benchmark::State& state) {
  const auto& scenario =
      snapshot_scenario(state.range(0), state.range(1) != 0);
  const auto input = snapshot_input(scenario);
  opt::SlotWeights weights = scenario.weights;
  weights.V = 1.0;
  weights.q = 100.0;
  opt::LadderSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(scenario.fleet, input, weights));
  }
}
BENCHMARK(BM_LadderSolveSlot)
    ->Args({50, 0})
    ->Args({200, 0})
    ->Args({50, 1})
    ->Args({200, 1});

// The paper's claim: 500 GSD iterations on 200 groups in under one second.
void BM_Gsd500Iterations200Groups(benchmark::State& state) {
  const auto& scenario = snapshot_scenario(200);
  const auto input = snapshot_input(scenario);
  opt::SlotWeights weights = scenario.weights;
  weights.V = 1.0;
  opt::GsdConfig config;
  config.iterations = 500;
  config.delta = 1e6;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    config.seed = ++seed;
    benchmark::DoNotOptimize(
        opt::GsdSolver(config).solve(scenario.fleet, input, weights));
  }
}
BENCHMARK(BM_Gsd500Iterations200Groups)->Unit(benchmark::kMillisecond);

// Multi-chain GSD at the same total iteration budget (chains x iters = 500):
// Arg is the chain count; wall-clock should shrink toward the per-chain
// share on multicore hardware while the merged result stays deterministic.
void BM_GsdMultiChain500TotalIterations(benchmark::State& state) {
  const auto& scenario = snapshot_scenario(200);
  const auto input = snapshot_input(scenario);
  opt::SlotWeights weights = scenario.weights;
  weights.V = 1.0;
  opt::GsdConfig config;
  config.chains = static_cast<int>(state.range(0));
  config.iterations = 500 / config.chains;
  config.delta = 1e6;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    config.seed = ++seed;
    benchmark::DoNotOptimize(
        opt::GsdSolver(config).solve(scenario.fleet, input, weights));
  }
}
BENCHMARK(BM_GsdMultiChain500TotalIterations)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_YearSimulationPerSlot(benchmark::State& state) {
  // Amortized cost of one COCA slot within a year-scale simulation.
  const auto& scenario = snapshot_scenario(40);
  std::size_t slots = 0;
  for (auto _ : state) {
    const auto result = sim::run_coca_constant_v(scenario, 1e4);
    slots += result.metrics.slot_count();
    benchmark::DoNotOptimize(result.metrics.total_cost());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_YearSimulationPerSlot)->Unit(benchmark::kMillisecond);

void BM_PsQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    des::Engine engine;
    des::PsQueue queue(engine, 10.0);
    des::JobSource source(engine, queue, 8.0, 1.0, 200.0, 3);
    engine.run_until(200.0);
    benchmark::DoNotOptimize(queue.stats().completions);
  }
}
BENCHMARK(BM_PsQueueThroughput);

void BM_DeficitQueueUpdate(benchmark::State& state) {
  core::CarbonDeficitQueue queue;
  double y = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.update(y, 5.0, 1.0, 4.0));
    y = y > 20.0 ? 1.0 : y + 0.1;
  }
}
BENCHMARK(BM_DeficitQueueUpdate);

// ---------------------------------------------------------------------------
// Parallel-sweep scaling report: a 100-point constant-V sweep, each point a
// 200-slot COCA simulation, evaluated through sim::SweepRunner at 1 thread
// and at COCA_THREADS (default 8) threads.  The report prints the wall-clock
// speedup and checks — at the bit level — that both runs produced identical
// per-point metrics, the determinism guarantee of the parallel layer.

std::vector<double> run_v_sweep(const sim::Scenario& scenario,
                                const std::vector<double>& vs,
                                std::size_t threads,
                                std::size_t& queue_high_water) {
  sim::SweepRunner runner({.threads = threads});
  const auto per_point = runner.map(vs, [&](double v) {
    const auto result = sim::run_coca_constant_v(scenario, v);
    return std::vector<double>{result.metrics.total_cost(),
                               result.metrics.total_brown_kwh(),
                               result.metrics.total_delay_cost(),
                               static_cast<double>(result.infeasible_slots)};
  });
  queue_high_water = runner.queue_high_water();
  std::vector<double> flat;
  flat.reserve(per_point.size() * 4);
  for (const auto& metrics : per_point) {
    flat.insert(flat.end(), metrics.begin(), metrics.end());
  }
  return flat;
}

// ---------------------------------------------------------------------------
// Incremental load-LP engine regression: replay one GSD-style single-flip
// candidate chain two ways over identical allocations —
//   reference     : opt::balance_loads per candidate (the seed baseline),
//   incremental   : opt::solve_load_lp (the sweep's engine),
// and record wall times plus the exactness verdict.  `bit_identical` is a
// deterministic meta (bench_diff fails CI if the engine ever drifts off the
// reference); `speedup_vs_reference` is timing and ratio-gated by the
// bench-regression job via --timing-keys.

std::vector<dc::Allocation> gsd_candidate_chain(const sim::Scenario& scenario,
                                                const opt::SlotInput& input,
                                                const opt::SlotWeights& weights,
                                                int flips) {
  // Single-flip walk with the GSD sweep's structure: candidates are kept
  // plus one mutated group, capacity-short ones never reach the load LP
  // (the sweep's line-2 check filters them first — gsd.cpp), and worse
  // candidates are still accepted occasionally (the Gibbs exploration).
  // Acceptance is seeded-deterministic so both replay passes see one
  // sequence.
  util::Rng rng(1234);
  const auto& fleet = scenario.fleet;
  dc::Allocation kept =
      opt::all_on_max(fleet, input.lambda, weights.gamma);
  auto kept_copy = kept;
  double kept_objective =
      opt::balance_loads(fleet, kept_copy, input, weights).outcome.objective;

  std::vector<dc::Allocation> chain;
  chain.reserve(static_cast<std::size_t>(flips));
  while (chain.size() < static_cast<std::size_t>(flips)) {
    dc::Allocation candidate = kept;
    const std::size_t g = rng.uniform_index(fleet.group_count());
    const auto& group = fleet.group(g);
    const std::size_t option =
        rng.uniform_index(group.spec().level_count() + 1);
    if (option == 0) {
      candidate[g].level = 0;
      candidate[g].active = 0.0;
    } else {
      const double chunk =
          std::ceil(static_cast<double>(group.server_count()) / 4.0);
      candidate[g].level = option - 1;
      candidate[g].active =
          std::min(static_cast<double>(group.server_count()),
                   chunk * static_cast<double>(rng.uniform_index(4) + 1));
    }
    if (dc::capped_capacity(fleet, candidate, weights.gamma) <
        input.lambda * (1.0 - 1e-12)) {
      continue;  // the sweep's capacity check rejects it before the LP
    }
    chain.push_back(candidate);
    auto balanced = candidate;
    const auto result = opt::balance_loads(fleet, balanced, input, weights);
    const bool improves =
        result.feasible && result.outcome.objective < kept_objective;
    if (improves || (result.feasible && rng.bernoulli(0.3))) {
      kept = candidate;
      kept_objective = result.outcome.objective;
    }
  }
  return chain;
}

void add_load_lp_regression(obs::BenchReport& report) {
  const auto& scenario = snapshot_scenario(50);
  const auto input = snapshot_input(scenario);
  opt::SlotWeights weights = scenario.weights;
  weights.V = 1.0;
  constexpr int kFlips = 1200;
  constexpr int kReps = 5;
  const auto chain = gsd_candidate_chain(scenario, input, weights, kFlips);

  const auto timed = [](auto&& body) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count();
  };

  // The two arms interleave inside each rep and report per-arm minima:
  // the solver's work per rep is identical, so the fastest rep is the one
  // with the least scheduler/frequency interference and the best estimate
  // of the arm's true cost, and interleaving means an interference window
  // degrades the same rep of every arm instead of one whole arm's samples.
  // Correctness checks still cover every rep.
  double total_ms = 0.0;
  std::vector<double> ref_objectives(chain.size());
  double reference_ms = std::numeric_limits<double>::infinity();
  double incremental_ms = std::numeric_limits<double>::infinity();
  std::size_t mismatches = 0;  // the engine must carry the exact bits
  for (int rep = 0; rep < kReps; ++rep) {
    const double ref_ms = timed([&] {
      for (std::size_t i = 0; i < chain.size(); ++i) {
        auto alloc = chain[i];
        ref_objectives[i] =
            opt::balance_loads(scenario.fleet, alloc, input, weights)
                .outcome.objective;
      }
    });
    reference_ms = std::min(reference_ms, ref_ms);
    total_ms += ref_ms;

    const double inc_ms = timed([&] {
      for (std::size_t i = 0; i < chain.size(); ++i) {
        auto alloc = chain[i];
        const auto result =
            opt::solve_load_lp(scenario.fleet, alloc, input, weights);
        if (std::bit_cast<std::uint64_t>(result.outcome.objective) !=
            std::bit_cast<std::uint64_t>(ref_objectives[i])) {
          ++mismatches;
        }
      }
    });
    incremental_ms = std::min(incremental_ms, inc_ms);
    total_ms += inc_ms;
  }

  // One more, untimed replay with a registry installed: the load LP's
  // per-solve counters, pinned as deterministic metas, show the per-(type,
  // level) sharing and the certified clearing at work.
  obs::Registry registry;
  {
    const obs::GlobalRegistryScope scope(&registry);
    for (const auto& candidate : chain) {
      auto alloc = candidate;
      opt::solve_load_lp(scenario.fleet, alloc, input, weights);
    }
  }
  const auto per_solve = [&](const char* counter) {
    return static_cast<double>(registry.counter_value(counter)) /
           static_cast<double>(chain.size());
  };

  obs::BenchResult result;
  result.name = "load_lp_regression";
  result.wall_s = total_ms / 1e3;
  result.evals_per_sec =
      incremental_ms > 0.0
          ? 1e3 * static_cast<double>(chain.size()) / incremental_ms
          : 0.0;
  result.objective = ref_objectives.back();
  result.meta["flips"] = static_cast<double>(chain.size());
  result.meta["groups"] =
      static_cast<double>(scenario.fleet.group_count());
  result.meta["reference_ms"] = reference_ms;
  result.meta["incremental_ms"] = incremental_ms;
  result.meta["speedup_vs_reference"] =
      incremental_ms > 0.0 ? reference_ms / incremental_ms : 0.0;
  result.meta["bit_identical"] = mismatches == 0 ? 1.0 : 0.0;
  result.meta["entries_per_solve"] = per_solve("load_lp.entries");
  result.meta["gap_evaluations_per_solve"] =
      per_solve("load_lp.gap_evaluations");
  result.meta["exact_sums_per_solve"] = per_solve("load_lp.exact_sums");
  report.add(result);

  std::cout << "-- load_lp regression: " << chain.size()
            << "-candidate GSD chain, " << scenario.fleet.group_count()
            << " groups --\n"
            << "   reference  : " << reference_ms << " ms\n"
            << "   incremental: " << incremental_ms << " ms ("
            << result.meta["speedup_vs_reference"]
            << "x, bit-identical: " << (mismatches == 0 ? "yes" : "NO")
            << ")\n"
            << "   per solve  : " << result.meta["entries_per_solve"]
            << " entries, " << result.meta["gap_evaluations_per_solve"]
            << " gap evaluations, " << result.meta["exact_sums_per_solve"]
            << " in-order sums\n\n";
}

/// Per-stage span profile of a short GSD-engine run: where a COCA slot
/// spends its time (`gsd_chain` vs the `load_lp` inner solver).  Counts are
/// deterministic; the *_ms fields are timing (bench_diff thresholds them).
void add_span_profile(obs::BenchReport& report, const sim::Scenario& scenario) {
  obs::SpanProfiler profiler;
  {
    const obs::SpanProfilerScope scope(&profiler);
    core::CocaConfig config;
    config.weights = scenario.weights;
    config.alpha = scenario.budget.alpha();
    config.rec_per_slot = scenario.budget.rec_per_slot();
    config.schedule = core::VSchedule::constant(1e4);
    config.engine = core::P3Engine::kGsd;
    config.gsd.chains = 2;
    config.gsd.iterations = 50;
    core::CocaController controller(scenario.fleet, config);
    sim::run_simulation(scenario.fleet, scenario.env, controller,
                        scenario.weights);
  }
  for (const auto& [path, stats] : profiler.snapshot()) {
    obs::BenchResult span;
    span.name = "span:";
    span.name += path;
    span.objective = static_cast<double>(stats.count);
    span.meta["count"] = static_cast<double>(stats.count);
    span.meta["total_ms"] = static_cast<double>(stats.total_ns) / 1e6;
    span.meta["self_ms"] = static_cast<double>(stats.self_ns) / 1e6;
    report.add(span);
  }
}

void report_sweep_scaling() {
  std::size_t threads = 8;
  if (const char* value = std::getenv("COCA_THREADS")) {
    const unsigned long parsed = std::strtoul(value, nullptr, 10);
    if (parsed >= 1) threads = parsed;
  }

  sim::ScenarioConfig config;
  config.hours = 200;
  config.fleet.group_count = 8;
  const auto scenario = sim::build_scenario(config);

  std::vector<double> vs;
  for (int i = 0; i < 100; ++i) {
    vs.push_back(std::pow(10.0, 8.0 * static_cast<double>(i) / 99.0));
  }

  std::size_t serial_high_water = 0;
  std::size_t parallel_high_water = 0;
  auto timed = [&](std::size_t n, std::size_t& high_water) {
    const auto start = std::chrono::steady_clock::now();
    auto metrics = run_v_sweep(scenario, vs, n, high_water);
    const auto stop = std::chrono::steady_clock::now();
    return std::pair(std::chrono::duration<double>(stop - start).count(),
                     std::move(metrics));
  };
  const auto [serial_s, serial_metrics] = timed(1, serial_high_water);
  const auto [parallel_s, parallel_metrics] = timed(threads, parallel_high_water);

  bool identical = serial_metrics.size() == parallel_metrics.size();
  for (std::size_t i = 0; identical && i < serial_metrics.size(); ++i) {
    identical = std::bit_cast<std::uint64_t>(serial_metrics[i]) ==
                std::bit_cast<std::uint64_t>(parallel_metrics[i]);
  }

  std::cout << "-- sweep scaling: 100-point V-sweep (200-slot sims, "
            << scenario.fleet.group_count() << " groups) --\n"
            << "   1 thread : " << serial_s << " s\n"
            << "   " << threads << " threads: " << parallel_s << " s\n"
            << "   speedup  : " << serial_s / parallel_s << "x (on "
            << std::thread::hardware_concurrency() << " hardware threads)\n"
            << "   metrics bit-identical across thread counts: "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n\n";

  // Machine-readable artifact (schema coca-bench-v1, consumed by CI and by
  // ObsBench.PerfMicroReportConsumedAsWritten).  `objective` anchors the
  // deterministic output; wall_s/slots-per-second are the timing side.
  obs::BenchReport report("perf_micro");
  const double slots_total =
      static_cast<double>(vs.size()) * static_cast<double>(config.hours);
  auto entry = [&](const char* name, std::size_t n, double wall_s,
                   const std::vector<double>& metrics) {
    obs::BenchResult result;
    result.name = name;
    result.wall_s = wall_s;
    result.evals_per_sec = wall_s > 0.0 ? slots_total / wall_s : 0.0;
    result.objective = metrics.empty() ? 0.0 : metrics.front();
    result.meta["threads"] = static_cast<double>(n);
    result.meta["points"] = static_cast<double>(vs.size());
    result.meta["slots_per_point"] = static_cast<double>(config.hours);
    result.meta["deterministic"] = identical ? 1.0 : 0.0;
    return result;
  };
  obs::BenchResult serial_entry =
      entry("sweep_scaling_serial", 1, serial_s, serial_metrics);
  serial_entry.meta["pool_queue_high_water"] =
      static_cast<double>(serial_high_water);
  report.add(serial_entry);
  obs::BenchResult scaled =
      entry("sweep_scaling_parallel", threads, parallel_s, parallel_metrics);
  scaled.meta["speedup"] = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  scaled.meta["pool_queue_high_water"] =
      static_cast<double>(parallel_high_water);
  report.add(scaled);
  add_load_lp_regression(report);
  add_span_profile(report, scenario);
  bench::append_runtime_obs(report);
  std::cout << "bench json: " << report.write() << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  coca::bench::ObsScope obs_scope;  // global metrics sink for obs_runtime
  report_sweep_scaling();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

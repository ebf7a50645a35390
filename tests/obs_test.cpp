// Tests for the observability layer: metrics registry semantics, the
// null-sink contract (no registry installed => helpers are no-ops), JSON
// rendering/parsing round-trips, slot-trace serialization and the
// BENCH_*.json reporter (consumed-as-written).

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coca::obs {
namespace {

TEST(ObsMetrics, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(ObsMetrics, GaugeTracksLastValueAndMax) {
  Gauge g;
  g.set(3.0);
  g.set(9.0);
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
}

TEST(ObsMetrics, HistogramSnapshotStatistics) {
  Histogram h;
  h.record(2.0);
  h.record(8.0);
  h.record(5.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 15.0);
  EXPECT_DOUBLE_EQ(snap.min, 2.0);
  EXPECT_DOUBLE_EQ(snap.max, 8.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 5.0);
}

TEST(ObsMetrics, RegistryFindOrCreateIsStable) {
  Registry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);  // same instrument, cacheable reference
  a.add(7);
  EXPECT_EQ(registry.counter_value("x"), 7);
  EXPECT_EQ(registry.counter_value("never-created"), 0);
}

TEST(ObsMetrics, RegistryIdsAreNeverReused) {
  // A cache of resolved instruments keys on the installed registry's id:
  // a registry built where a destroyed one lived must not share its id.
  // Placement new, not std::optional: gcc 12 reports optional's emplace
  // after reset as maybe-uninitialized under -fno-sanitize-recover.
  alignas(Registry) unsigned char storage[sizeof(Registry)];
  Registry* registry = new (storage) Registry;
  const std::uint64_t first = registry->id();
  registry->~Registry();
  registry = new (storage) Registry;
  EXPECT_NE(registry->id(), first);
  EXPECT_NE(first, 0u);
  EXPECT_NE(registry->id(), 0u);
  registry->~Registry();
}

TEST(ObsMetrics, HelpersAreNoOpsWithoutGlobalRegistry) {
  ASSERT_EQ(global(), nullptr) << "tests assume the default null sink";
  // Must not crash, allocate a registry, or otherwise observably act.
  count("nobody.listens");
  gauge_set("nobody.listens", 1.0);
  observe("nobody.listens", 1.0);
  EXPECT_EQ(global(), nullptr);
}

TEST(ObsMetrics, GlobalRegistryScopeInstallsAndRestores) {
  Registry registry;
  {
    GlobalRegistryScope scope(&registry);
    ASSERT_EQ(global(), &registry);
    count("scoped.events", 2);
    gauge_set("scoped.level", 4.5);
    observe("scoped.sample", 1.25);
  }
  EXPECT_EQ(global(), nullptr);  // restored
  EXPECT_EQ(registry.counter_value("scoped.events"), 2);
  EXPECT_DOUBLE_EQ(registry.gauge("scoped.level").value(), 4.5);
  EXPECT_EQ(registry.histogram("scoped.sample").snapshot().count, 1);
}

TEST(ObsMetrics, ConcurrentRecordingIsSafe) {
  // The registry's thread-safety contract, exercised under TSan in the
  // sanitizer presets: concurrent counts/gauges/observes through the global
  // helpers lose nothing and tear nothing.
  Registry registry;
  GlobalRegistryScope scope(&registry);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([] {
      for (int j = 0; j < kPerThread; ++j) {
        count("mt.events");
        gauge_set("mt.gauge", static_cast<double>(j));
        observe("mt.sample", static_cast<double>(j));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(registry.counter_value("mt.events"), kThreads * kPerThread);
  EXPECT_EQ(registry.histogram("mt.sample").snapshot().count,
            kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(registry.gauge("mt.gauge").max(), kPerThread - 1.0);
}

TEST(ObsJson, EscapeAndNumberRendering) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::int64_t{42}), "42");
  // Non-finite values must not produce invalid JSON.
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(ObsJson, AppendFormsAppendExactlyTheReturnedBytes) {
  // The append forms are the one formatter: onto a non-empty buffer they
  // must add exactly json_number's / json_escape's bytes at every edge of
  // the double and int64 ranges, and leave the prefix alone.
  const std::string prefix = "{\"k\":";
  const double kDoubles[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      0.1,
      1e21,
      1e-7,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  for (const double value : kDoubles) {
    std::string out = prefix;
    append_json_number(out, value);
    EXPECT_EQ(out, prefix + json_number(value)) << value;
  }
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::denorm_min()),
            "5e-324");
  EXPECT_EQ(json_number(1e21), "1e+21");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  for (const std::int64_t value :
       {std::numeric_limits<std::int64_t>::min(), std::int64_t{-1},
        std::int64_t{0}, std::numeric_limits<std::int64_t>::max()}) {
    std::string out = prefix;
    append_json_number(out, value);
    EXPECT_EQ(out, prefix + json_number(value)) << value;
  }
  EXPECT_EQ(json_number(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
  EXPECT_EQ(json_number(std::numeric_limits<std::int64_t>::max()),
            "9223372036854775807");
  const std::string text = std::string("a\"b\\c\n\t\r") + '\x01' + "z";
  std::string out = prefix;
  append_json_escaped(out, text);
  EXPECT_EQ(out, prefix + json_escape(text));
  EXPECT_EQ(json_escape(text), "a\\\"b\\\\c\\n\\t\\r\\u0001z");
}

TEST(ObsJson, ParseRoundTrip) {
  const JsonValue doc = parse_json(
      R"({"s":"hi","n":2.5,"b":true,"z":null,"a":[1,2],"o":{"k":-3}})");
  EXPECT_EQ(doc.at("s").as_string(), "hi");
  EXPECT_DOUBLE_EQ(doc.at("n").as_double(), 2.5);
  EXPECT_TRUE(doc.at("b").as_bool());
  EXPECT_TRUE(doc.at("z").is_null());
  ASSERT_EQ(doc.at("a").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("a").as_array()[1].as_double(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("o").at("k").as_double(), -3.0);
  EXPECT_FALSE(doc.contains("missing"));
  EXPECT_THROW(doc.at("missing"), std::runtime_error);
  EXPECT_THROW(doc.at("s").as_double(), std::runtime_error);
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json(""), std::runtime_error);
}

TEST(ObsJson, ParseBoundsNestingDepth) {
  // Arrays and objects nest through one recursion, so a deep document must
  // throw, not overflow the stack: the limit parses, one more level throws,
  // and so do 10^5 open brackets (which crashed the unbounded parser).
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto objects = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += R"({"k":)";
    return text + "0" + std::string(depth, '}');
  };
  const JsonValue doc = parse_json(arrays(kMaxJsonDepth));
  std::size_t depth = 1;
  for (const JsonValue* v = &doc; !v->as_array().empty();
       v = &v->as_array()[0]) {
    ++depth;
  }
  EXPECT_EQ(depth, kMaxJsonDepth);
  EXPECT_NO_THROW(parse_json(objects(kMaxJsonDepth)));
  EXPECT_THROW(parse_json(arrays(kMaxJsonDepth + 1)), std::runtime_error);
  EXPECT_THROW(parse_json(objects(kMaxJsonDepth + 1)), std::runtime_error);
  EXPECT_THROW(parse_json("[" + objects(kMaxJsonDepth) + "]"),
               std::runtime_error);
  EXPECT_THROW(parse_json(std::string(100000, '[')), std::runtime_error);
}

TEST(ObsTrace, JsonLineHasFixedKeyOrderAndParses) {
  SlotTrace slot;
  slot.t = 3;
  slot.lambda = 120.5;
  slot.price = 0.06;
  slot.q = 42.0;
  slot.v = 1e4;
  slot.rec_cost = 0.25;
  slot.solve_ms = 1.5;
  const std::string line = to_json_line(slot);
  EXPECT_LT(line.find("\"t\""), line.find("\"lambda\""));
  EXPECT_LT(line.find("\"lambda\""), line.find("\"q\""));
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const JsonValue doc = parse_json(line);
  EXPECT_DOUBLE_EQ(doc.at("t").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("q").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(doc.at("rec_cost").as_double(), 0.25);
  EXPECT_DOUBLE_EQ(doc.at("solve_ms").as_double(), 1.5);
}

TEST(ObsTrace, ToJsonLineEqualsTheAppendForm) {
  // Random records, with and without the fault fields; numbers drawn both
  // as ordinary values and as raw bit patterns (NaN, inf, subnormals).
  std::uint64_t state = 0x5eedULL;
  const auto next = [&state] {
    state += 0x9e3779b97f4a7c15ULL;  // SplitMix64
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const auto number = [&next] {
    const std::uint64_t bits = next();
    if (bits % 2 == 0) return std::bit_cast<double>(next());
    return static_cast<double>(bits % 100000) / 7.0;
  };
  const auto integer = [&next] { return std::bit_cast<std::int64_t>(next()); };
  for (int i = 0; i < 500; ++i) {
    SlotTrace slot;
    slot.t = static_cast<std::size_t>(next() % 100000);
    slot.lambda = number();
    slot.price = number();
    slot.onsite_kw = number();
    slot.offsite_kwh = number();
    slot.q = number();
    slot.v = number();
    slot.active_servers = number();
    slot.mean_speed_level = number();
    slot.feasible = next() % 2 == 0;
    slot.brown_kwh = number();
    slot.electricity_cost = number();
    slot.delay_cost = number();
    slot.rec_cost = number();
    slot.total_cost = number();
    slot.evaluations = integer();
    slot.acceptance_rate = number();
    slot.chains = integer();
    slot.winning_chain = integer();
    slot.fault_active = i % 2 == 1;
    slot.degraded = next() % 2 == 0;
    slot.stale_inputs = integer();
    slot.fallback = next() % 2 == 0;
    slot.shed_lambda = number();
    slot.solve_ms = number();
    const std::string line = to_json_line(slot);
    std::string out = "prefix\n";
    append_json_line(out, slot);
    ASSERT_EQ(out, "prefix\n" + line) << "record " << i;
    EXPECT_EQ(line.find("\"shed_lambda\"") != std::string::npos,
              slot.fault_active);
  }
}

TEST(ObsTrace, WriterEmitsOneLinePerSlotInOrder) {
  SlotTraceWriter writer;
  for (std::size_t t = 0; t < 3; ++t) {
    SlotTrace slot;
    slot.t = t;
    writer.record(slot);
  }
  EXPECT_EQ(writer.size(), 3u);
  const std::string jsonl = writer.to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t expected_t = 0;
  while (std::getline(lines, line)) {
    EXPECT_DOUBLE_EQ(parse_json(line).at("t").as_double(),
                     static_cast<double>(expected_t++));
  }
  EXPECT_EQ(expected_t, 3u);
  writer.clear();
  EXPECT_EQ(writer.size(), 0u);
}

TEST(ObsTrace, MaskTimingFieldsZeroesOnlySolveMs) {
  SlotTrace slot;
  slot.total_cost = 9.75;
  slot.solve_ms = 123.456;
  SlotTraceWriter writer;
  writer.record(slot);
  slot.solve_ms = 0.125;  // a "different thread count" timing
  SlotTraceWriter other;
  other.record(slot);
  EXPECT_NE(writer.to_jsonl(), other.to_jsonl());
  const std::string masked = mask_timing_fields(writer.to_jsonl());
  EXPECT_EQ(masked, mask_timing_fields(other.to_jsonl()));
  const JsonValue doc = parse_json(masked.substr(0, masked.find('\n')));
  EXPECT_DOUBLE_EQ(doc.at("solve_ms").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(doc.at("total_cost").as_double(), 9.75);  // untouched
}

TEST(ObsBench, ReportWritesAndParsesAsWritten) {
  BenchReport report("unit");
  BenchResult r;
  r.name = "sweep_scaling_4_threads";
  r.wall_s = 1.25;
  r.evals_per_sec = 8000.0;
  r.objective = 1.0e6;
  r.meta["threads"] = 4.0;
  r.meta["deterministic"] = 1.0;
  report.add(r);

  const std::string path =
      testing::TempDir() + "/BENCH_obs_test_roundtrip.json";
  EXPECT_EQ(report.write(path), path);
  const BenchReport parsed = BenchReport::parse_file(path);
  EXPECT_EQ(parsed.suite(), "unit");
  ASSERT_EQ(parsed.results().size(), 1u);
  const BenchResult& p = parsed.results()[0];
  EXPECT_EQ(p.name, r.name);
  EXPECT_DOUBLE_EQ(p.wall_s, r.wall_s);
  EXPECT_DOUBLE_EQ(p.evals_per_sec, r.evals_per_sec);
  EXPECT_DOUBLE_EQ(p.objective, r.objective);
  EXPECT_EQ(p.meta, r.meta);
  std::remove(path.c_str());
}

TEST(ObsBench, ParseRejectsWrongSchema) {
  EXPECT_THROW(
      BenchReport::parse(R"({"schema":"not-bench","suite":"x","results":[]})"),
      std::runtime_error);
  EXPECT_THROW(BenchReport::parse("[]"), std::runtime_error);
}

TEST(ObsBench, ValidateAcceptsWellFormedReport) {
  BenchReport report("suite");
  BenchResult r;
  r.name = "point_0";
  r.objective = 1.5;
  r.meta["groups"] = 8.0;
  report.add(r);
  EXPECT_TRUE(report.validate().empty());
}

TEST(ObsBench, ValidateRejectsEmptyAndDuplicateNames) {
  BenchReport empty_suite("");
  EXPECT_FALSE(empty_suite.validate().empty());  // empty suite + no results

  BenchReport report("suite");
  BenchResult unnamed;
  report.add(unnamed);  // empty result name
  BenchResult dup;
  dup.name = "twice";
  report.add(dup);
  report.add(dup);  // duplicate
  const auto problems = report.validate();
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_NE(problems[0].find("empty result name"), std::string::npos);
  EXPECT_NE(problems[1].find("duplicate result name 'twice'"),
            std::string::npos);
}

TEST(ObsBench, ValidateRejectsNonFiniteValues) {
  BenchReport report("suite");
  BenchResult r;
  r.name = "bad";
  r.objective = std::numeric_limits<double>::quiet_NaN();
  r.meta["ratio"] = std::numeric_limits<double>::infinity();
  report.add(r);
  const auto problems = report.validate();
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_NE(problems[0].find("non-finite objective"), std::string::npos);
  EXPECT_NE(problems[1].find("non-finite meta 'ratio'"), std::string::npos);
}

TEST(ObsBench, DefaultPathHonoursEnvDir) {
  BenchReport report("suite_name");
  // Without the env var the file lands in the working directory.
  unsetenv("COCA_BENCH_JSON_DIR");
  EXPECT_EQ(report.default_path(), "./BENCH_suite_name.json");
  setenv("COCA_BENCH_JSON_DIR", "/tmp/bench-out", 1);
  EXPECT_EQ(report.default_path(), "/tmp/bench-out/BENCH_suite_name.json");
  unsetenv("COCA_BENCH_JSON_DIR");
}

}  // namespace
}  // namespace coca::obs

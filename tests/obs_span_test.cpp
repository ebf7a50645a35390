// Tests for the hierarchical span profiler (obs/span.hpp): path nesting on
// one thread, the explicit parent_path overload that keeps cross-thread
// dispatch in the hierarchy, self-time accounting, determinism of counts,
// the JSON rendering (and its interaction with mask_timing_fields), and the
// null-profiler contract (no profiler installed => spans cost nothing and
// record nothing).

#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/trace.hpp"

namespace coca::obs {
namespace {

TEST(ObsSpan, NestedSpansBuildSlashSeparatedPaths) {
  SpanProfiler profiler;
  SpanProfilerScope scope(&profiler);
  {
    ScopedSpan outer("slot");
    {
      ScopedSpan mid("gsd_chain[0]");
      { ScopedSpan inner("load_lp"); }
      { ScopedSpan inner("load_lp"); }
    }
  }
  const auto spans = profiler.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans.at("slot").count, 1);
  EXPECT_EQ(spans.at("slot/gsd_chain[0]").count, 1);
  EXPECT_EQ(spans.at("slot/gsd_chain[0]/load_lp").count, 2);
}

TEST(ObsSpan, CurrentSpanPathReflectsOpenStack) {
  SpanProfiler profiler;
  SpanProfilerScope scope(&profiler);
  EXPECT_EQ(current_span_path(), "");
  {
    ScopedSpan outer("slot");
    EXPECT_EQ(current_span_path(), "slot");
    {
      ScopedSpan inner("rec_policy");
      EXPECT_EQ(current_span_path(), "slot/rec_policy");
    }
    EXPECT_EQ(current_span_path(), "slot");
  }
  EXPECT_EQ(current_span_path(), "");
}

TEST(ObsSpan, ExplicitParentKeepsWorkerSpansInHierarchy) {
  // The cross-thread pattern: capture the path on the dispatching thread,
  // open the worker's span under it.  Paths and counts must be exactly what
  // a same-thread nesting would have produced.
  SpanProfiler profiler;
  SpanProfilerScope scope(&profiler);
  std::string captured;
  {
    ScopedSpan outer("slot");
    captured = current_span_path();
    std::thread worker([&captured] {
      ScopedSpan chain("gsd_chain[1]", captured);
      { ScopedSpan lp("load_lp"); }  // plain nesting inside the worker
    });
    worker.join();
  }
  const auto spans = profiler.snapshot();
  EXPECT_EQ(spans.at("slot").count, 1);
  EXPECT_EQ(spans.at("slot/gsd_chain[1]").count, 1);
  EXPECT_EQ(spans.at("slot/gsd_chain[1]/load_lp").count, 1);
}

TEST(ObsSpan, EmptyParentRootsTheSpan) {
  SpanProfiler profiler;
  SpanProfilerScope scope(&profiler);
  {
    ScopedSpan root("sweep_point", std::string());
    EXPECT_EQ(current_span_path(), "sweep_point");
  }
  EXPECT_EQ(profiler.snapshot().at("sweep_point").count, 1);
}

TEST(ObsSpan, SelfTimeExcludesSameThreadChildren) {
  SpanProfiler profiler;
  SpanProfilerScope scope(&profiler);
  {
    ScopedSpan outer("slot");
    for (int i = 0; i < 3; ++i) {
      ScopedSpan inner("load_lp");
      // Busy-wait a little so the child accumulates measurable time.
      const std::int64_t start = now_ns();
      while (now_ns() - start < 200'000) {
      }
    }
  }
  const auto spans = profiler.snapshot();
  const SpanStats& outer = spans.at("slot");
  const SpanStats& inner = spans.at("slot/load_lp");
  EXPECT_EQ(inner.count, 3);
  EXPECT_GE(inner.total_ns, 3 * 200'000);
  // The parent's total covers the children; its self time does not.
  EXPECT_GE(outer.total_ns, inner.total_ns);
  EXPECT_LE(outer.self_ns, outer.total_ns - inner.total_ns);
  // Leaves have no children to subtract.
  EXPECT_EQ(inner.self_ns, inner.total_ns);
}

TEST(ObsSpan, CountsAreDeterministicAcrossRepeats) {
  auto run = [] {
    SpanProfiler profiler;
    SpanProfilerScope scope(&profiler);
    for (int t = 0; t < 7; ++t) {
      ScopedSpan slot("slot");
      for (int c = 0; c < 2; ++c) {
        std::string name = "gsd_chain[";
        name += std::to_string(c);
        name += ']';
        ScopedSpan chain(name);
        for (int i = 0; i < 3; ++i) {
          ScopedSpan iter("sweep_iter");
        }
      }
    }
    return profiler.snapshot();
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [path, stats] : first) {
    EXPECT_EQ(stats.count, second.at(path).count) << path;
  }
  EXPECT_EQ(first.at("slot").count, 7);
  EXPECT_EQ(first.at("slot/gsd_chain[0]/sweep_iter").count, 21);
}

TEST(ObsSpan, ToJsonIsPathSortedAndMaskable) {
  SpanProfiler profiler;
  SpanProfilerScope scope(&profiler);
  {
    ScopedSpan b("beta");
  }
  {
    ScopedSpan a("alpha");
  }
  const std::string json = profiler.to_json();
  EXPECT_NE(json.find(kSpanProfileSchema), std::string::npos);
  EXPECT_LT(json.find("alpha"), json.find("beta"));  // path-sorted
  // Timing fields mask to zero; the counts survive.
  const std::string masked = mask_timing_fields(json + "\n");
  EXPECT_NE(masked.find("\"count\":1"), std::string::npos);
  EXPECT_NE(masked.find("\"total_ms\":0"), std::string::npos);
  EXPECT_NE(masked.find("\"self_ms\":0"), std::string::npos);
  // Two profiles of the same structure mask to identical bytes.
  SpanProfiler other;
  {
    SpanProfilerScope inner_scope(&other);
    {
      ScopedSpan b("beta");
    }
    {
      ScopedSpan a("alpha");
    }
  }
  EXPECT_EQ(masked, mask_timing_fields(other.to_json() + "\n"));
}

TEST(ObsSpan, ClearResetsTheProfile) {
  SpanProfiler profiler;
  SpanProfilerScope scope(&profiler);
  {
    ScopedSpan s("slot");
  }
  ASSERT_EQ(profiler.snapshot().size(), 1u);
  profiler.clear();
  EXPECT_TRUE(profiler.snapshot().empty());
}

TEST(ObsSpan, ScopeInstallsAndRestoresProfiler) {
  ASSERT_EQ(span_profiler(), nullptr) << "tests assume the default null sink";
  SpanProfiler profiler;
  {
    SpanProfilerScope scope(&profiler);
    EXPECT_EQ(span_profiler(), &profiler);
  }
  EXPECT_EQ(span_profiler(), nullptr);
}

TEST(ObsSpan, SpansAreNoOpsWithoutProfiler) {
  ASSERT_EQ(span_profiler(), nullptr);
  {
    ScopedSpan s("slot");  // must not crash or allocate a profiler
    EXPECT_EQ(current_span_path(), "");
  }
  SUCCEED();
}

}  // namespace
}  // namespace coca::obs

// Tests for the Trace container.

#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace coca::workload {
namespace {

Trace ramp() { return Trace("ramp", {1.0, 2.0, 3.0, 4.0}); }

TEST(Trace, BasicAccessors) {
  const Trace t = ramp();
  EXPECT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t[2], 3.0);
  EXPECT_DOUBLE_EQ(t.peak(), 4.0);
  EXPECT_DOUBLE_EQ(t.mean(), 2.5);
  EXPECT_DOUBLE_EQ(t.total(), 10.0);
  EXPECT_EQ(t.name(), "ramp");
}

TEST(Trace, RejectsNegativeValuesAndBadSlot) {
  EXPECT_THROW(Trace("bad", {1.0, -0.1}), std::invalid_argument);
  EXPECT_THROW(Trace("bad", {1.0}, 0.0), std::invalid_argument);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf, -kInf}) {
    EXPECT_THROW(Trace("bad", {1.0, bad}), std::invalid_argument) << bad;
    EXPECT_THROW(Trace("bad", {1.0}, bad), std::invalid_argument) << bad;
  }
}

TEST(Trace, NormalizedPeaksAtOne) {
  const Trace n = ramp().normalized();
  EXPECT_DOUBLE_EQ(n.peak(), 1.0);
  EXPECT_DOUBLE_EQ(n[0], 0.25);
}

TEST(Trace, ScaledToPeak) {
  const Trace s = ramp().scaled_to_peak(100.0);
  EXPECT_DOUBLE_EQ(s.peak(), 100.0);
  EXPECT_DOUBLE_EQ(s[0], 25.0);
}

TEST(Trace, ScaledToPeakOfZeroTraceThrows) {
  const Trace zero("z", {0.0, 0.0});
  EXPECT_THROW(zero.scaled_to_peak(1.0), std::domain_error);
}

TEST(Trace, ScaledRejectsNegativeFactor) {
  EXPECT_THROW(ramp().scaled(-1.0), std::invalid_argument);
}

TEST(Trace, RepeatedConcatenates) {
  const Trace r = ramp().repeated(3);
  EXPECT_EQ(r.size(), 12u);
  EXPECT_DOUBLE_EQ(r[4], 1.0);
  EXPECT_DOUBLE_EQ(r[11], 4.0);
}

TEST(Trace, SliceBoundsChecked) {
  const Trace s = ramp().slice(1, 2);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_THROW(ramp().slice(3, 2), std::out_of_range);
}

TEST(Trace, AddElementwise) {
  const Trace sum = Trace::add(ramp(), ramp(), "double");
  EXPECT_DOUBLE_EQ(sum[3], 8.0);
  EXPECT_EQ(sum.name(), "double");
  const Trace shorter("s", {1.0});
  EXPECT_THROW(Trace::add(ramp(), shorter, "bad"), std::invalid_argument);
}

TEST(Trace, CsvRoundTrip) {
  const Trace t = ramp();
  const Trace back = Trace::from_csv(t.to_csv(), "copy");
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(back[i], t[i]);
}

TEST(Trace, FromCsvRequiresTwoColumns) {
  EXPECT_THROW(Trace::from_csv("only\n1\n", "x"), std::invalid_argument);
}

TEST(Trace, FromCsvRejectsMalformedAndInfiniteCells) {
  // util::parse_csv reads a malformed cell as NaN; neither it nor an
  // infinity may reach lambda(t).
  EXPECT_THROW(Trace::from_csv("slot,value\n0,100\n1,abc\n", "x"),
               std::invalid_argument);
  EXPECT_THROW(Trace::from_csv("slot,value\n0,100\n1,inf\n", "x"),
               std::invalid_argument);
  EXPECT_THROW(Trace::from_csv("slot,value\n0,100\n1,abc\n2,inf\n", "x"),
               std::invalid_argument);
  EXPECT_EQ(Trace::from_csv("slot,value\n0,100\n1,5\n", "x").total(), 105.0);
}

TEST(Trace, EmptyTraceBehaviour) {
  const Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.peak(), 0.0);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

}  // namespace
}  // namespace coca::workload

#include <gtest/gtest.h>

#include <sstream>

#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace maco::util {
namespace {

TEST(Bits, PowerOfTwoDetection) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_TRUE(is_pow2(1ull << 63));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(4097));
}

TEST(Bits, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(4096), 12u);
  EXPECT_EQ(log2_floor(~0ull), 63u);
}

TEST(Bits, Alignment) {
  EXPECT_EQ(align_down(4097, 4096), 4096u);
  EXPECT_EQ(align_down(4096, 4096), 4096u);
  EXPECT_EQ(align_up(4097, 4096), 8192u);
  EXPECT_EQ(align_up(4096, 4096), 4096u);
  EXPECT_EQ(align_up(0, 4096), 0u);
}

TEST(Bits, BitExtraction) {
  EXPECT_EQ(bits(0xFF00, 8, 8), 0xFFu);
  EXPECT_EQ(bits(0xDEADBEEF, 0, 32), 0xDEADBEEFu);
  EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Scalar, TracksMinMeanMax) {
  Scalar s;
  s.record(1.0);
  s.record(3.0);
  s.record(2.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Histogram, BucketsAndPercentiles) {
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) h.record(i + 0.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
  EXPECT_NEAR(h.percentile(0.9), 90.0, 10.0);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(10.0, 20.0, 5);
  h.record(5.0);
  h.record(25.0);
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(StatRegistry, CountersAndReport) {
  StatRegistry reg;
  reg.counter("a.b").inc(3);
  reg.counter("a.c").inc();
  reg.scalar("x").record(1.5);
  std::ostringstream oss;
  reg.report(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("a.b 3"), std::string::npos);
  EXPECT_NE(out.find("a.c 1"), std::string::npos);
  EXPECT_NE(out.find("x count=1"), std::string::npos);
}

TEST(Table, AlignedOutput) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::uint64_t{42});
  t.row().cell("b").percent(0.935);
  std::ostringstream oss;
  t.print(oss, "demo");
  const std::string out = oss.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("93.5%"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(48 * kKiB), "48.00 KiB");
  EXPECT_EQ(format_flops(1.1e12), "1.10 TFLOPS");
  EXPECT_EQ(format_frequency(2.5e9), "2.50 GHz");
  EXPECT_EQ(format_bandwidth(64e9), "64.00 GB/s");
}

}  // namespace
}  // namespace maco::util

#include "util/stats.hpp"

namespace maco::util {
namespace {

TEST(Histogram, PercentilesAndBounds) {
  Histogram h(0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i) + 0.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
  EXPECT_NEAR(h.percentile(0.9), 90.0, 10.0);
  EXPECT_LE(h.percentile(0.0), h.percentile(1.0));
}

TEST(Histogram, OutOfRangeSamplesLandInOverflowBins) {
  Histogram h(0.0, 10.0, 5);
  h.record(-5.0);
  h.record(100.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.buckets().front(), 1u);  // underflow
  EXPECT_EQ(h.buckets().back(), 1u);   // overflow
}

TEST(StatRegistryMore, HistogramsRegisterOnceAndReport) {
  StatRegistry registry;
  Histogram& occupancy =
      registry.histogram("noc.link_occupancy", 0.0, 1.0, 20);
  occupancy.record(0.25);
  occupancy.record(0.75);
  // A later call with a different shape returns the existing histogram.
  Histogram& again = registry.histogram("noc.link_occupancy", 0.0, 5.0, 3);
  EXPECT_EQ(&occupancy, &again);
  EXPECT_EQ(again.count(), 2u);
  ASSERT_EQ(registry.histograms().count("noc.link_occupancy"), 1u);

  std::ostringstream oss;
  registry.report(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("noc.link_occupancy count=2"), std::string::npos);
  EXPECT_NE(out.find("p95="), std::string::npos);
}

TEST(StatRegistryMore, NamesAreStableAndShared) {
  StatRegistry registry;
  registry.counter("node0.mmae.tasks").inc(3);
  registry.counter("node0.mmae.tasks").inc(2);
  EXPECT_EQ(registry.counter("node0.mmae.tasks").value(), 5u);
  registry.counter("node1.mmae.tasks").inc();
  EXPECT_EQ(registry.counter("node1.mmae.tasks").value(), 1u);
}

TEST(ScalarMore, ResetClearsEverything) {
  Scalar s;
  s.record(5.0);
  s.record(-1.0);
  ASSERT_EQ(s.count(), 2u);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
}

}  // namespace
}  // namespace maco::util

#include <sstream>

#include "util/table.hpp"

namespace maco::util {
namespace {

TEST(TableCsv, PlainCellsAndHeader) {
  std::ostringstream out;
  write_csv_cell(out, "alpha");
  out << ',';
  write_csv_cell(out, format_double(1.5, 1));
  EXPECT_EQ(out.str(), "alpha,1.5");
}

TEST(TableCsv, QuotesCommasAndEmbeddedQuotes) {
  std::ostringstream out;
  write_csv_cell(out, "x,y");
  out << ',';
  write_csv_cell(out, "say \"hi\"");
  out << ',';
  write_csv_cell(out, "two\nlines");
  EXPECT_EQ(out.str(), "\"x,y\",\"say \"\"hi\"\"\",\"two\nlines\"");
}

}  // namespace
}  // namespace maco::util

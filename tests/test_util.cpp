#include <gtest/gtest.h>

#include <sstream>

#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

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

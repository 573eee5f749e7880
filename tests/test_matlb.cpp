// Tests for the paper's Fig. 4 predictive address translation.
#include <gtest/gtest.h>

#include <unordered_set>

#include "page_entries.hpp"
#include "vm/matlb.hpp"

namespace maco::vm {
namespace {

// The Fig. 4 scenario: FP64 matrix with 1024 columns (8 KiB rows, two 4 KiB
// pages per row), tile <ttr,ttc> = <4,64>.
TEST(Prediction, Fig4RowsCoverTwoPages) {
  MatrixDesc m{0x40000000, 1024, 1024, 8, 0};
  // Tile at column 0: 64 elements * 8 B = 512 B per row, one page per row.
  TileDesc left{0, 0, 4, 64};
  const auto entries_left = predict_page_entries(m, left);
  EXPECT_EQ(entries_left.size(), 4u);  // one first-element per row page

  // Case 1 of Fig. 4: a tile whose rows cross a page boundary yields two
  // entries per row.
  TileDesc crossing{0, 480, 4, 64};  // bytes 3840..4352 cross the 4 KiB line
  const auto entries_crossing = predict_page_entries(m, crossing);
  EXPECT_EQ(entries_crossing.size(), 8u);
}

TEST(Prediction, EntriesAreStreamOrdered) {
  MatrixDesc m{0x40000000, 16, 1024, 8, 0};
  TileDesc t{0, 0, 16, 1024};  // full rows: 2 pages each
  const auto entries = predict_page_entries(m, t);
  ASSERT_EQ(entries.size(), 32u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    // Within a row the addresses ascend; across rows they restart.
    if (i % 2 == 1) {
      EXPECT_GT(entries[i], entries[i - 1]);
    }
  }
}

TEST(Prediction, FirstEntryIsTileOrigin) {
  MatrixDesc m{0x40000000, 64, 512, 8, 0};
  TileDesc t{3, 17, 4, 64};
  const auto entries = predict_page_entries(m, t);
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries.front(), m.element_addr(3, 17));
}

TEST(Prediction, SmallMatrixSharesPages) {
  // 256-column FP64 rows are 2 KiB: two rows share a page, so a 4-row tile
  // at column 0 touches only 2 distinct pages.
  MatrixDesc m{0x40000000, 256, 256, 8, 0};
  TileDesc t{0, 0, 4, 64};
  EXPECT_LE(distinct_pages(m, t), 3u);
}

TEST(Prediction, PageEntriesCoverEveryTouchedPage) {
  MatrixDesc m{0x40000000, 32, 700, 8, 0};
  TileDesc t{5, 100, 20, 300};
  std::unordered_set<std::uint64_t> expected;
  for (std::uint64_t r = t.row0; r < t.row0 + t.rows; ++r) {
    for (std::uint64_t c = t.col0; c < t.col0 + t.cols; ++c) {
      expected.insert(vpn_of(m.element_addr(r, c)));
    }
  }
  std::unordered_set<std::uint64_t> predicted;
  for (const VirtAddr va : predict_page_entries(m, t)) {
    predicted.insert(vpn_of(va));
  }
  EXPECT_EQ(predicted, expected);
}

class MatlbTest : public ::testing::Test {
 protected:
  MatlbTest()
      : table_(0x1000000), memory_(10'000), walker_(memory_),
        matlb_("test.matlb", 256) {}

  void map_matrix(const MatrixDesc& m) {
    const std::uint64_t bytes = m.footprint_bytes();
    for (std::uint64_t off = 0; off < bytes + kPageSize; off += kPageSize) {
      const VirtAddr va = (m.base & ~(kPageSize - 1)) + off;
      if (!table_.is_mapped(va)) table_.map(va, 0x100000000ull + off);
    }
  }

  PageTable table_;
  FixedLatencyOracle memory_;
  PageTableWalker walker_;
  Matlb matlb_;
};

TEST_F(MatlbTest, PrefillThenStreamHits) {
  MatrixDesc m{0x40000000, 64, 1024, 8, 0};
  map_matrix(m);
  TileDesc t{0, 0, 64, 64};
  const auto report = matlb_.prefill(1, table_, walker_, m, t, 0);
  EXPECT_EQ(report.faults, 0u);
  EXPECT_GT(report.predicted_pages, 0u);

  // Stream through the tile rows in order: every page lookup hits.
  sim::TimePs now = report.total_walk_latency + 1;
  for (std::uint64_t r = 0; r < t.rows; ++r) {
    const VirtAddr va = m.element_addr(r, 0);
    const auto result = matlb_.lookup(va, now);
    EXPECT_TRUE(result.hit) << "row " << r;
    EXPECT_EQ(result.wait, 0u);
    // Physical address must match the page table.
    EXPECT_EQ(result.phys, *table_.translate(va));
  }
  EXPECT_EQ(matlb_.misses(), 0u);
}

TEST_F(MatlbTest, LatePredictionReportsWait) {
  MatrixDesc m{0x40000000, 16, 1024, 8, 0};
  map_matrix(m);
  TileDesc t{0, 0, 16, 64};
  matlb_.prefill(1, table_, walker_, m, t, /*start=*/1'000'000);
  // Looking up immediately (before walks complete) must surface a wait.
  const auto result = matlb_.lookup(m.element_addr(0, 0), /*now=*/0);
  EXPECT_TRUE(result.hit);
  EXPECT_GT(result.wait, 0u);
  EXPECT_EQ(matlb_.late_predictions(), 1u);
}

TEST_F(MatlbTest, StreamRetirementDiscardsPassedEntries) {
  MatrixDesc m{0x40000000, 8, 1024, 8, 0};
  map_matrix(m);
  TileDesc t{0, 0, 8, 64};
  matlb_.prefill(1, table_, walker_, m, t, 0);
  const std::size_t before = matlb_.size();
  // Jump straight to row 4: rows 0-3's entries retire.
  const auto result = matlb_.lookup(m.element_addr(4, 0), 1'000'000);
  EXPECT_TRUE(result.hit);
  EXPECT_EQ(matlb_.retired(), 4u);
  EXPECT_LT(matlb_.size(), before);
}

TEST_F(MatlbTest, MissAfterFlush) {
  MatrixDesc m{0x40000000, 8, 1024, 8, 0};
  map_matrix(m);
  matlb_.prefill(1, table_, walker_, m, TileDesc{0, 0, 8, 64}, 0);
  matlb_.flush();
  const auto result = matlb_.lookup(m.element_addr(0, 0), 1'000'000);
  EXPECT_FALSE(result.hit);
}

TEST_F(MatlbTest, CapacityBoundsPredictions) {
  Matlb tiny("tiny", 4);
  MatrixDesc m{0x40000000, 64, 1024, 8, 0};
  map_matrix(m);
  const auto report =
      tiny.prefill(1, table_, walker_, m, TileDesc{0, 0, 64, 64}, 0);
  EXPECT_EQ(report.predicted_pages, 4u);
  EXPECT_GT(report.dropped_capacity, 0u);
}

TEST_F(MatlbTest, UnmappedPageReportsFault) {
  MatrixDesc m{0x7F0000000, 4, 512, 8, 0};  // never mapped
  const auto report =
      matlb_.prefill(1, table_, walker_, m, TileDesc{0, 0, 4, 64}, 0);
  EXPECT_GT(report.faults, 0u);
}

}  // namespace
}  // namespace maco::vm

namespace maco::vm {
namespace {

TEST(PageSizeParam, LargerPagesTouchFewerPages) {
  const MatrixDesc matrix{0x40000000, 2048, 2048, 8, 0};
  const TileDesc tile{512, 1024, 64, 64};
  const auto p4k = predict_page_entries(matrix, tile, 4096);
  const auto p64k = predict_page_entries(matrix, tile, 65536);
  const auto p2m = predict_page_entries(matrix, tile, 2 * 1024 * 1024);
  EXPECT_GT(p4k.size(), p64k.size());
  EXPECT_GE(p64k.size(), p2m.size());
  EXPECT_GE(p2m.size(), 1u);
}

TEST(PageSizeParam, DefaultOverloadIsFourKiB) {
  const MatrixDesc matrix{0x40000000, 256, 256, 8, 0};
  const TileDesc tile{0, 0, 64, 64};
  EXPECT_EQ(predict_page_entries(matrix, tile).size(),
            predict_page_entries(matrix, tile, kPageSize).size());
}

}  // namespace
}  // namespace maco::vm

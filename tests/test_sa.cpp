// Systolic array: functional correctness against the reference GEMM and
// cycle-count agreement between the register-level simulation and the
// closed-form latency model.
#include <gtest/gtest.h>

#include "sa/host_matrix.hpp"
#include "sa/latency_model.hpp"
#include "sa/systolic_array.hpp"
#include "util/rng.hpp"

namespace maco::sa {
namespace {

HostMatrix run_and_check(const SaConfig& config, std::size_t m, std::size_t n,
                         std::size_t k, SaRunResult* result_out = nullptr) {
  util::Rng rng(m * 1000003 + n * 1009 + k);
  const HostMatrix a = HostMatrix::random(m, k, rng);
  const HostMatrix b = HostMatrix::random(k, n, rng);
  HostMatrix c = HostMatrix::random(m, n, rng);

  HostMatrix expected = c;
  reference_gemm(a, b, expected);

  SystolicArray array(config);
  HostMatrix actual = c;
  const SaRunResult result = array.run(a, b, actual);
  if (result_out) *result_out = result;
  EXPECT_TRUE(actual.approx_equal(expected, 1e-9))
      << m << "x" << n << "x" << k;
  return actual;
}

TEST(SystolicArray, SingleBlockExact) {
  run_and_check(SaConfig{}, 4, 4, 4);
}

TEST(SystolicArray, TileLargerThanArray) {
  run_and_check(SaConfig{}, 16, 16, 16);
}

TEST(SystolicArray, NonSquareShapes) {
  run_and_check(SaConfig{}, 8, 20, 12);
  run_and_check(SaConfig{}, 20, 8, 12);
  run_and_check(SaConfig{}, 12, 12, 32);
}

TEST(SystolicArray, RaggedEdges) {
  run_and_check(SaConfig{}, 5, 7, 9);
  run_and_check(SaConfig{}, 3, 3, 3);
  run_and_check(SaConfig{}, 1, 1, 1);
  run_and_check(SaConfig{}, 6, 13, 2);
}

TEST(SystolicArray, PaperInnerTile) {
  SaRunResult result;
  run_and_check(SaConfig{}, 64, 64, 64, &result);
  // 16 k-blocks × 16 n-blocks × 64 slots + skew + preload.
  const SaTiming timing =
      compute_sa_timing(TileShape{64, 64, 64}, SaConfig{});
  EXPECT_EQ(result.cycles, timing.total_cycles);
  EXPECT_GT(result.utilization, 0.99);  // steady-state dominated
}

TEST(SystolicArray, Fp32SimdMode) {
  SaConfig config;
  config.precision = Precision::kFp32;
  SaRunResult result;
  run_and_check(config, 32, 16, 16, &result);
  // 2-way SIMD halves the slot count vs FP64.
  SaConfig fp64 = config;
  fp64.precision = Precision::kFp64;
  const auto t32 = compute_sa_timing(TileShape{32, 16, 16}, config);
  const auto t64 = compute_sa_timing(TileShape{32, 16, 16}, fp64);
  EXPECT_LT(t32.total_cycles, t64.total_cycles);
  EXPECT_EQ(result.cycles, t32.total_cycles);
}

TEST(SystolicArray, Fp16SimdMode) {
  SaConfig config;
  config.precision = Precision::kFp16;
  run_and_check(config, 64, 8, 8);
}

TEST(SystolicArray, NonSquareArray) {
  SaConfig config;
  config.rows = 2;
  config.cols = 8;
  run_and_check(config, 16, 16, 16);
  config.rows = 8;
  config.cols = 2;
  run_and_check(config, 16, 16, 16);
}

TEST(SystolicArray, WithoutDoubleBufferingSlower) {
  SaConfig db{};
  SaConfig no_db{};
  no_db.double_buffered_b = false;
  const TileShape shape{64, 64, 64};
  const auto fast = compute_sa_timing(shape, db);
  const auto slow = compute_sa_timing(shape, no_db);
  EXPECT_GT(slow.total_cycles, fast.total_cycles);
  // 256 passes of 4-cycle preload exposed.
  EXPECT_EQ(slow.total_cycles - fast.total_cycles, 255u * 4u);
  run_and_check(no_db, 12, 12, 12);  // still functionally exact
}

// Property sweep: simulation and closed form agree cycle-for-cycle, and the
// functional result matches the reference, across a shape grid.
struct ShapeCase {
  std::size_t m, n, k;
  Precision precision;
};

class SaPropertyTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(SaPropertyTest, SimulationMatchesClosedFormAndReference) {
  const ShapeCase& shape = GetParam();
  SaConfig config;
  config.precision = shape.precision;
  SaRunResult result;
  run_and_check(config, shape.m, shape.n, shape.k, &result);
  const SaTiming timing = compute_sa_timing(
      TileShape{shape.m, shape.n, shape.k}, config);
  EXPECT_EQ(result.cycles, timing.total_cycles);
  EXPECT_DOUBLE_EQ(result.utilization, timing.utilization);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, SaPropertyTest,
    ::testing::Values(
        ShapeCase{4, 4, 4, Precision::kFp64},
        ShapeCase{8, 8, 8, Precision::kFp64},
        ShapeCase{16, 4, 8, Precision::kFp64},
        ShapeCase{4, 16, 8, Precision::kFp64},
        ShapeCase{7, 9, 11, Precision::kFp64},
        ShapeCase{32, 32, 4, Precision::kFp64},
        ShapeCase{2, 2, 30, Precision::kFp64},
        ShapeCase{64, 64, 64, Precision::kFp64},
        ShapeCase{16, 16, 16, Precision::kFp32},
        ShapeCase{9, 5, 6, Precision::kFp32},
        ShapeCase{16, 16, 16, Precision::kFp16},
        ShapeCase{13, 4, 4, Precision::kFp16}),
    [](const ::testing::TestParamInfo<ShapeCase>& info) {
      const auto& s = info.param;
      return std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
             std::to_string(s.k) + "_" + precision_name(s.precision);
    });

TEST(LatencyModel, HazardPaddingForTinyPasses) {
  // m=1, single N block, many K blocks: the C-buffer RAW hazard forces
  // padded slots.
  const SaTiming t = compute_sa_timing(TileShape{1, 4, 64}, SaConfig{});
  EXPECT_GE(t.slots_per_pass, 4u);  // padded to p_rows / n_blocks
}

TEST(LatencyModel, UtilizationApproachesOneForTallTiles) {
  const SaTiming t =
      compute_sa_timing(TileShape{4096, 64, 64}, SaConfig{});
  EXPECT_GT(t.utilization, 0.995);
}

}  // namespace
}  // namespace maco::sa

#include "sa/sparse.hpp"
#include "util/rng.hpp"

namespace maco::sa {
namespace {

TEST(Sparse24, PruningEnforcesStructureAndDensity) {
  util::Rng rng(17);
  HostMatrix m = HostMatrix::random(64, 48, rng);
  const double density = prune_2_4_rows(m);
  EXPECT_TRUE(is_2_4_sparse_rows(m));
  EXPECT_NEAR(density, 0.5, 1e-9);  // random data: always 2 kept of 4
}

TEST(Sparse24, PruningKeepsLargestMagnitudes) {
  HostMatrix m(4, 1);
  m.at(0, 0) = 0.1;
  m.at(1, 0) = -9.0;
  m.at(2, 0) = 3.0;
  m.at(3, 0) = 0.2;
  prune_2_4_rows(m);
  EXPECT_EQ(m.at(0, 0), 0.0);
  EXPECT_EQ(m.at(1, 0), -9.0);
  EXPECT_EQ(m.at(2, 0), 3.0);
  EXPECT_EQ(m.at(3, 0), 0.0);
}

TEST(Sparse24, RaggedGroupsStayDense) {
  util::Rng rng(18);
  HostMatrix m = HostMatrix::random(6, 3, rng);  // rows 4..5 are a tail
  prune_2_4_rows(m);
  EXPECT_TRUE(is_2_4_sparse_rows(m));
  int tail_nonzero = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    if (m.at(4, c) != 0.0) ++tail_nonzero;
    if (m.at(5, c) != 0.0) ++tail_nonzero;
  }
  EXPECT_EQ(tail_nonzero, 6);  // tail untouched
}

TEST(Sparse24, TimingSpeedupBounded) {
  const SparseSaConfig config{};
  for (const std::uint64_t k : {64ull, 256ull, 1024ull}) {
    const auto timing =
        compute_sparse_sa_timing(TileShape{64, 64, k}, config);
    EXPECT_GT(timing.speedup, 1.2) << k;
    EXPECT_LE(timing.speedup, 2.0) << k;  // 2:4 can at most halve the work
    EXPECT_EQ(timing.k_compressed, k / 2);
  }
}

TEST(Sparse24, FunctionalGemmOnPrunedWeightsMatchesReference) {
  util::Rng rng(19);
  const auto a = HostMatrix::random(32, 64, rng);
  HostMatrix b = HostMatrix::random(64, 32, rng);
  prune_2_4_rows(b);  // weights pruned, then computed exactly
  SystolicArray array(SaConfig{});
  HostMatrix c(32, 32);
  array.run(a, b, c);
  HostMatrix expected(32, 32);
  reference_gemm(a, b, expected);
  EXPECT_TRUE(c.approx_equal(expected, 1e-9));
}

TEST(Sparse24, DegenerateGroupConfigs) {
  // 4:4 "sparsity" is dense: no compression, only overhead.
  SparseSaConfig dense_cfg;
  dense_cfg.kept = 4;
  const auto timing =
      compute_sparse_sa_timing(TileShape{64, 64, 256}, dense_cfg);
  EXPECT_EQ(timing.k_compressed, 256u);
  EXPECT_LE(timing.speedup, 1.0);
  // 1:4 compresses fourfold.
  SparseSaConfig quarter;
  quarter.kept = 1;
  const auto q = compute_sparse_sa_timing(TileShape{64, 64, 256}, quarter);
  EXPECT_EQ(q.k_compressed, 64u);
  EXPECT_GT(q.speedup, 2.0);
}

}  // namespace
}  // namespace maco::sa

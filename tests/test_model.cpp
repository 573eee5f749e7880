// Area/power model vs the paper's Table IV.
#include <gtest/gtest.h>

#include "model/area_power.hpp"
#include "model/roofline.hpp"

namespace maco::model {
namespace {

TEST(AreaPower, MmaeTotalsMatchTableIV) {
  AreaPowerModel model;
  const UnitSummary mmae = model.mmae_summary();
  EXPECT_NEAR(mmae.area_mm2, 1.58, 0.10);
  EXPECT_NEAR(mmae.power_watts, 1.5, 0.15);
  EXPECT_NEAR(mmae.peak_gflops_fp64, 80.0, 0.1);
  EXPECT_NEAR(mmae.peak_gflops_fp32, 160.0, 0.1);
  EXPECT_NEAR(mmae.peak_gflops_fp16, 320.0, 0.1);
}

TEST(AreaPower, CpuTotalsMatchTableIV) {
  AreaPowerModel model;
  const UnitSummary cpu = model.cpu_summary();
  EXPECT_NEAR(cpu.area_mm2, 6.25, 0.30);
  EXPECT_NEAR(cpu.power_watts, 2.0, 0.20);
  EXPECT_NEAR(cpu.peak_gflops_fp64, 35.2, 0.1);
  EXPECT_NEAR(cpu.peak_gflops_fp32, 70.4, 0.5);
}

TEST(AreaPower, BreakdownMatchesTableIVFootnote) {
  AreaPowerModel model;
  const AreaBreakdown area = model.mmae_area(MmaeParams{});
  // Paper: Buffers 36.7%, SA 24.7%, AC 23.4%, ADE 15.8%.
  EXPECT_NEAR(area.buffers_fraction(), 0.367, 0.03);
  EXPECT_NEAR(area.sa_fraction(), 0.247, 0.03);
  EXPECT_NEAR(area.ac_fraction(), 0.234, 0.03);
  EXPECT_NEAR(area.ade_fraction(), 0.158, 0.03);
  EXPECT_NEAR(area.buffers_fraction() + area.sa_fraction() +
                  area.ac_fraction() + area.ade_fraction(),
              1.0, 1e-9);
}

TEST(AreaPower, PaperRatiosEmerge) {
  AreaPowerModel model;
  const UnitSummary mmae = model.mmae_summary();
  const UnitSummary cpu = model.cpu_summary();
  // "the area of MMAE is only 25% of the size of CPU core"
  EXPECT_NEAR(mmae.area_mm2 / cpu.area_mm2, 0.25, 0.03);
  // "peak performance ... over 2x of that of CPU"
  EXPECT_GT(mmae.peak_gflops_fp64 / cpu.peak_gflops_fp64, 2.0);
  // "a much higher (9x) area efficiency"
  EXPECT_NEAR(mmae.area_efficiency() / cpu.area_efficiency(), 9.0, 1.0);
  // "2x theoretical computation efficiency (GFLOPS/W)". Table IV's own
  // numbers actually give (80/1.5)/(35.2/2.0) ~ 3x, so the paper's "2x" is
  // a floor; assert at least 2x (see EXPERIMENTS.md on this inconsistency).
  EXPECT_GE(mmae.power_efficiency() / cpu.power_efficiency(), 2.0);
  // "power consumption of MMAE is 25% lower than CPU"
  EXPECT_NEAR(1.0 - mmae.power_watts / cpu.power_watts, 0.25, 0.08);
}

TEST(AreaPower, AreaScalesWithBuffers) {
  AreaPowerModel model;
  MmaeParams small;
  small.buffer_kib = 96;
  MmaeParams big;
  big.buffer_kib = 384;
  EXPECT_LT(model.mmae_area(small).total_mm2,
            model.mmae_area(big).total_mm2);
}

TEST(Roofline, GemmIntensityGrowsWithBlocking) {
  const double small = gemm_arithmetic_intensity(4096, 4096, 4096, 64, 64, 8);
  const double big = gemm_arithmetic_intensity(4096, 4096, 4096, 512, 512, 8);
  EXPECT_GT(big, small);
}

TEST(Roofline, GemmIntensityIndependentOfOutputScale) {
  // Blocks tile the C matrix, so traffic scales exactly with m*n at fixed k:
  // intensity is invariant in m and n.
  const double a = gemm_arithmetic_intensity(2048, 2048, 4096, 256, 256, 8);
  const double b = gemm_arithmetic_intensity(8192, 8192, 4096, 256, 256, 8);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Roofline, GemmIntensityApproachesBlockBoundFromBelow) {
  // As k grows, the C read/write term amortizes and intensity approaches
  // the blocking bound b/elem_bytes from below.
  const double bound = 256.0 / 8.0;
  double prev = 0.0;
  for (std::uint64_t k : {512u, 2048u, 8192u, 32768u}) {
    const double v = gemm_arithmetic_intensity(4096, 4096, k, 256, 256, 8);
    EXPECT_GT(v, prev);
    EXPECT_LT(v, bound);
    prev = v;
  }
  EXPECT_NEAR(prev, bound, bound * 0.02);
}

}  // namespace
}  // namespace maco::model

// Register-level vs direct systolic-array equivalence suite.
//
// The closed-form SA functional path is a pure performance transformation:
// C matrices bit for bit and makespans to the picosecond must match the
// register-level PE simulation (sa::SaConfig::exact_pe_sim), both for the
// array alone and through the whole detailed machine.
#include <gtest/gtest.h>

#include <cstring>

#include "core/detailed_runner.hpp"
#include "core/timing_model.hpp"
#include "sa/systolic_array.hpp"
#include "util/rng.hpp"

namespace maco {
namespace {

// ---------------- systolic array: exact vs fast ----------------

// Both functional paths must produce bit-identical C for any shape,
// including ones that do not divide the 4x4 array (padded k positions add
// an explicit +0.0, which flushes -0.0 — the fast path must reproduce
// even that).
void expect_sa_paths_bit_identical(std::uint64_t m, std::uint64_t n,
                                   std::uint64_t k) {
  util::Rng rng(42);
  const auto a = sa::HostMatrix::random(m, k, rng);
  const auto b = sa::HostMatrix::random(k, n, rng);
  const auto c0 = sa::HostMatrix::random(m, n, rng);  // nonzero initial C

  sa::SaConfig config;
  config.exact_pe_sim = true;
  sa::SystolicArray exact(config);
  config.exact_pe_sim = false;
  sa::SystolicArray fast(config);

  sa::HostMatrix c_exact = c0;
  sa::HostMatrix c_fast = c0;
  const auto r_exact = exact.run(a, b, c_exact);
  const auto r_fast = fast.run(a, b, c_fast);

  EXPECT_EQ(r_exact.cycles, r_fast.cycles);
  EXPECT_EQ(r_exact.passes, r_fast.passes);
  for (std::uint64_t i = 0; i < m; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      const double ve = c_exact.at(i, j);
      const double vf = c_fast.at(i, j);
      // Bitwise comparison: catches a -0.0/+0.0 or FMA-contraction split
      // that a value comparison would wave through.
      EXPECT_EQ(std::memcmp(&ve, &vf, sizeof ve), 0)
          << "C(" << i << "," << j << ") " << ve << " vs " << vf << " at "
          << m << "x" << n << "x" << k;
    }
  }
}

TEST(SaEquivalence, SingleElement) {
  expect_sa_paths_bit_identical(1, 1, 1);
}

TEST(SaEquivalence, RaggedShape) {
  expect_sa_paths_bit_identical(5, 7, 9);
}

TEST(SaEquivalence, NonDividingBlocks) {
  expect_sa_paths_bit_identical(33, 17, 65);
}

TEST(SaEquivalence, ArrayAlignedShape) {
  expect_sa_paths_bit_identical(64, 64, 64);
}

// ---------------- detailed machine: exact vs fast SA ----------------

core::SystemTiming run_sa_path(core::SystemConfig config, bool exact_pe_sim,
                               std::uint64_t size, unsigned nodes) {
  config.mmae.sa.exact_pe_sim = exact_pe_sim;
  core::TimingOptions options;
  options.shape = sa::TileShape{size, size, size};
  options.precision = sa::Precision::kFp64;
  options.active_nodes = nodes;
  return core::run_detailed_gemm(config, options);
}

TEST(DetailedEquivalence, GemmMakespanMatchesDefaultBackends) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const auto fast = run_sa_path(config, /*exact_pe_sim=*/false, 96, 2);
  const auto exact = run_sa_path(config, /*exact_pe_sim=*/true, 96, 2);
  ASSERT_GT(fast.makespan_ps, 0u);
  EXPECT_EQ(fast.makespan_ps, exact.makespan_ps);
  EXPECT_DOUBLE_EQ(fast.mean_efficiency, exact.mean_efficiency);
}

TEST(DetailedEquivalence, GemmMakespanMatchesDetailedBackends) {
  // The high-fidelity backends (banked DRAM + flit interconnect) ride the
  // same machine; the SA path must not perturb them either.
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.dram.kind = mem::DramKind::kQueued;
  config.icnt = noc::IcntKind::kFlit;
  const auto fast = run_sa_path(config, /*exact_pe_sim=*/false, 96, 2);
  const auto exact = run_sa_path(config, /*exact_pe_sim=*/true, 96, 2);
  ASSERT_GT(fast.makespan_ps, 0u);
  EXPECT_EQ(fast.makespan_ps, exact.makespan_ps);
}

}  // namespace
}  // namespace maco

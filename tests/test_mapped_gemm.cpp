// MappedGemmRunner: the Fig. 5 multi-node mapping as a library call,
// verified functionally against the host reference over node counts,
// shapes, tilings and accumulate modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/mapped_gemm.hpp"
#include "util/rng.hpp"

namespace maco::core {
namespace {

SystemConfig config_with(unsigned nodes) {
  SystemConfig config = SystemConfig::maco_default();
  config.node_count = nodes;
  return config;
}

struct Operands {
  vm::MatrixDesc a_desc, b_desc, c_desc;
  sa::HostMatrix a, b, c0;
};

Operands make_operands(MacoSystem& system, Process& process, util::Rng& rng,
                       std::uint64_t m, std::uint64_t n, std::uint64_t k,
                       bool nonzero_c = false) {
  Operands ops;
  ops.a = sa::HostMatrix::random(m, k, rng);
  ops.b = sa::HostMatrix::random(k, n, rng);
  ops.c0 = nonzero_c ? sa::HostMatrix::random(m, n, rng)
                     : sa::HostMatrix(m, n);
  ops.a_desc = system.alloc_matrix(process, m, k);
  ops.b_desc = system.alloc_matrix(process, k, n);
  ops.c_desc = system.alloc_matrix(process, m, n);
  system.write_matrix(process, ops.a_desc, ops.a);
  system.write_matrix(process, ops.b_desc, ops.b);
  system.write_matrix(process, ops.c_desc, ops.c0);
  return ops;
}

sa::HostMatrix expected_of(const Operands& ops, bool accumulate) {
  sa::HostMatrix expected =
      accumulate ? ops.c0 : sa::HostMatrix(ops.a.rows(), ops.b.cols());
  sa::reference_gemm(ops.a, ops.b, expected);
  return expected;
}

// Every field is 64-bit so the struct has no padding: gtest prints the
// parameter's raw bytes into the test name, and padding bytes are
// indeterminate, which would make the names differ from build to build.
struct MappedCase {
  std::uint64_t nodes;
  std::uint64_t m, n, k;
  std::uint64_t tile;  // tile_rows == tile_cols
};
static_assert(std::has_unique_object_representations_v<MappedCase>);

class MappedSweep : public ::testing::TestWithParam<MappedCase> {};

TEST_P(MappedSweep, MatchesReference) {
  const MappedCase c = GetParam();
  MacoSystem system(config_with(static_cast<unsigned>(c.nodes)));
  Process& process = system.create_process();
  util::Rng rng(1000 + c.nodes + c.m);
  const Operands ops = make_operands(system, process, rng, c.m, c.n, c.k);

  MappedGemmRunner runner(system);
  MappedGemmOptions options;
  options.tile_rows = c.tile;
  options.tile_cols = c.tile;
  const MappedGemmResult result =
      runner.run(process, ops.a_desc, ops.b_desc, ops.c_desc, options);

  ASSERT_TRUE(result.ok) << "exception "
                         << cpu::exception_type_name(result.first_exception);
  EXPECT_EQ(result.nodes_used, c.nodes);
  EXPECT_GT(result.gemm_tasks, 0u);
  EXPECT_GT(result.makespan_ps, 0u);
  EXPECT_TRUE(system.read_matrix(process, ops.c_desc)
                  .approx_equal(expected_of(ops, true), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    NodeAndShapeSweep, MappedSweep,
    ::testing::Values(MappedCase{1, 96, 96, 64, 1024},
                      MappedCase{2, 128, 96, 64, 1024},
                      MappedCase{4, 128, 128, 96, 1024},
                      MappedCase{4, 100, 132, 52, 1024},  // ragged
                      MappedCase{8, 160, 160, 64, 1024},
                      MappedCase{4, 128, 128, 64, 64},    // many tiles/node
                      MappedCase{2, 96, 192, 48, 64}));

TEST(MappedGemm, OverwriteModeIgnoresPriorC) {
  MacoSystem system(config_with(2));
  Process& process = system.create_process();
  util::Rng rng(77);
  const Operands ops =
      make_operands(system, process, rng, 96, 96, 64, /*nonzero_c=*/true);

  MappedGemmRunner runner(system);
  MappedGemmOptions options;
  options.accumulate = false;
  const auto result =
      runner.run(process, ops.a_desc, ops.b_desc, ops.c_desc, options);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(system.read_matrix(process, ops.c_desc)
                  .approx_equal(expected_of(ops, false), 1e-9));
}

TEST(MappedGemm, AccumulateModeAddsToPriorC) {
  MacoSystem system(config_with(2));
  Process& process = system.create_process();
  util::Rng rng(78);
  const Operands ops =
      make_operands(system, process, rng, 96, 96, 64, /*nonzero_c=*/true);

  MappedGemmRunner runner(system);
  const auto result =
      runner.run(process, ops.a_desc, ops.b_desc, ops.c_desc, {});
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(system.read_matrix(process, ops.c_desc)
                  .approx_equal(expected_of(ops, true), 1e-9));
}

TEST(MappedGemm, StashOffStillCorrect) {
  MacoSystem system(config_with(4));
  Process& process = system.create_process();
  util::Rng rng(79);
  const Operands ops = make_operands(system, process, rng, 128, 128, 64);

  MappedGemmRunner runner(system);
  MappedGemmOptions options;
  options.stash_lock = false;
  const auto result =
      runner.run(process, ops.a_desc, ops.b_desc, ops.c_desc, options);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stash_tasks, 0u);
  EXPECT_TRUE(system.read_matrix(process, ops.c_desc)
                  .approx_equal(expected_of(ops, true), 1e-9));
}

TEST(MappedGemm, StashLockWarmsL3ForTheGemmWave) {
  // With stash+lock, the GEMM wave's DMA traffic hits the L3; the stash
  // fills show up in the CCM counters.
  MacoSystem system(config_with(1));
  Process& process = system.create_process();
  util::Rng rng(80);
  const Operands ops = make_operands(system, process, rng, 96, 96, 96);

  MappedGemmRunner runner(system);
  const auto result =
      runner.run(process, ops.a_desc, ops.b_desc, ops.c_desc, {});
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.stash_tasks, 2u);

  std::uint64_t stash_fills = 0;
  for (unsigned slice = 0; slice < system.config().ccm_count; ++slice) {
    stash_fills += system.ccm_for(static_cast<vm::PhysAddr>(slice) *
                                  mem::kLineBytes)
                       .stash_fills();
  }
  EXPECT_GT(stash_fills, 0u);
}

TEST(MappedGemm, MoreNodesFasterWhenComputeDominates) {
  // On a compute-dominated shape, 4 nodes beat 1 node end to end. (Tiny
  // GEMMs legitimately don't scale: the packing waves dominate.)
  sim::TimePs span1 = 0, span4 = 0;
  for (const unsigned nodes : {1u, 4u}) {
    MacoSystem system(config_with(nodes));
    Process& process = system.create_process();
    util::Rng local(42);
    const Operands ops = make_operands(system, process, local, 384, 384, 96);
    MappedGemmRunner runner(system);
    const auto result =
        runner.run(process, ops.a_desc, ops.b_desc, ops.c_desc, {});
    ASSERT_TRUE(result.ok);
    (nodes == 1 ? span1 : span4) = result.makespan_ps;
  }
  EXPECT_LT(span4, span1);
  EXPECT_GT(static_cast<double>(span1) / static_cast<double>(span4), 2.0);
}

}  // namespace
}  // namespace maco::core

// Whole-system integration: MPAIS programs on MacoSystem nodes, end-to-end
// through MTQ/STQ, DMA over the CCM/L3/DRAM path, the systolic array, and
// back to memory — plus multi-process and multi-node scenarios.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "core/gemm_mapper.hpp"
#include "core/maco_system.hpp"
#include "util/rng.hpp"

namespace maco::core {
namespace {

SystemConfig small_config(unsigned nodes = 4) {
  SystemConfig config = SystemConfig::maco_default();
  config.node_count = nodes;
  return config;
}

isa::GemmParams make_gemm(const vm::MatrixDesc& a, const vm::MatrixDesc& b,
                          const vm::MatrixDesc& c) {
  isa::GemmParams params;
  params.a_base = a.base;
  params.b_base = b.base;
  params.c_base = c.base;
  params.m = static_cast<std::uint32_t>(a.rows);
  params.k = static_cast<std::uint32_t>(a.cols);
  params.n = static_cast<std::uint32_t>(b.cols);
  return params;
}

TEST(Integration, SingleNodeGemmViaMpais) {
  MacoSystem system(small_config(1));
  Process& process = system.create_process();
  system.schedule_process(0, process);

  util::Rng rng(101);
  const std::uint64_t dim = 96;
  const auto a_desc = system.alloc_matrix(process, dim, dim);
  const auto b_desc = system.alloc_matrix(process, dim, dim);
  const auto c_desc = system.alloc_matrix(process, dim, dim);
  const auto a = sa::HostMatrix::random(dim, dim, rng);
  const auto b = sa::HostMatrix::random(dim, dim, rng);
  system.write_matrix(process, a_desc, a);
  system.write_matrix(process, b_desc, b);
  system.write_matrix(process, c_desc, sa::HostMatrix(dim, dim));

  cpu::CpuCore& cpu = system.node(0).cpu();
  cpu.regs().write_param_block(10, make_gemm(a_desc, b_desc, c_desc).pack());
  cpu.execute_source("ma_cfg x5, x10");
  system.run();

  const auto maid = static_cast<cpu::Maid>(cpu.regs().read(5));
  EXPECT_TRUE(cpu.mtq().entry(maid).done);
  EXPECT_FALSE(cpu.mtq().entry(maid).exception_en);

  sa::HostMatrix expected(dim, dim);
  sa::reference_gemm(a, b, expected);
  EXPECT_TRUE(system.read_matrix(process, c_desc).approx_equal(expected, 1e-9));

  // The L3/CCM path really served the traffic.
  const auto& report = system.node(0).mmae().reports().front();
  EXPECT_GT(report.dma_bytes, 3 * dim * dim * 8);
}

// The host-side matrix helpers copy one page-bounded run at a time; a
// strided matrix that starts mid-page, with rows that cross pages, must
// still put every element at its own translated address.
TEST(Integration, MatrixRoundTripsAcrossPages) {
  MacoSystem system(small_config(1));
  Process& process = system.create_process();
  vm::MatrixDesc desc = system.alloc_matrix(process, 8, 1024);  // 64 KiB
  desc.base += 1000;
  desc.rows = 5;
  desc.cols = 700;  // 5,600-byte rows
  desc.row_stride_bytes = 700 * sizeof(double) + 136;
  util::Rng rng(7);
  const auto values = sa::HostMatrix::random(5, 700, rng);
  system.write_matrix(process, desc, values);

  const vm::PageTable& table = process.space->page_table();
  for (std::uint64_t r = 0; r < desc.rows; ++r) {
    for (std::uint64_t c = 0; c < desc.cols; ++c) {
      const auto pa = table.translate(desc.element_addr(r, c));
      ASSERT_TRUE(pa.has_value());
      ASSERT_EQ(system.memory().read_f64(*pa), values.at(r, c))
          << "row " << r << ", col " << c;
    }
  }
  EXPECT_EQ(system.read_matrix(process, desc).data(), values.data());
}

// A machine built without values has none to hand back or take in, so the
// host-side matrix helpers refuse, naming the flag, instead of returning
// or storing nothing.
void expect_refused_without_values(
    const std::function<void(MacoSystem&, Process&, const vm::MatrixDesc&)>&
        use) {
  SystemConfig config = small_config(1);
  config.carry_values = false;
  MacoSystem system(config);
  Process& process = system.create_process();
  const auto desc = system.alloc_matrix(process, 8, 8);
  try {
    use(system, process, desc);
    ADD_FAILURE() << "returned on a machine without values";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("carry_values"),
              std::string::npos)
        << error.what();
  }
}

TEST(Integration, ReadMatrixThrowsWithoutValues) {
  expect_refused_without_values(
      [](MacoSystem& system, Process& process, const vm::MatrixDesc& desc) {
        (void)system.read_matrix(process, desc);
      });
}

TEST(Integration, WriteMatrixThrowsWithoutValues) {
  expect_refused_without_values(
      [](MacoSystem& system, Process& process, const vm::MatrixDesc& desc) {
        system.write_matrix(process, desc, sa::HostMatrix(8, 8));
      });
}

TEST(Integration, NodesAndSlicesMustSitOnTheMesh) {
  // The interconnect tabulates its routes between mesh positions, so a
  // node or an L3 slice off the 4x4 mesh is refused at construction.
  SystemConfig slices = small_config(1);
  slices.ccm_count = 17;
  EXPECT_DEATH(MacoSystem{slices}, "17 L3 slices on a 16-position mesh");
  SystemConfig nodes = small_config(1);
  nodes.mesh.width = 2;
  nodes.mesh.height = 2;
  nodes.ccm_count = 4;
  nodes.node_count = 5;
  EXPECT_DEATH(MacoSystem{nodes}, "5 nodes and 4 L3 slices");
}

TEST(Integration, MaStateReleasesViaProgram) {
  MacoSystem system(small_config(1));
  Process& process = system.create_process();
  system.schedule_process(0, process);

  util::Rng rng(7);
  const auto a_desc = system.alloc_matrix(process, 64, 64);
  const auto b_desc = system.alloc_matrix(process, 64, 64);
  const auto c_desc = system.alloc_matrix(process, 64, 64);
  system.write_matrix(process, a_desc, sa::HostMatrix::random(64, 64, rng));
  system.write_matrix(process, b_desc, sa::HostMatrix::random(64, 64, rng));
  system.write_matrix(process, c_desc, sa::HostMatrix(64, 64));

  cpu::CpuCore& cpu = system.node(0).cpu();
  cpu.regs().write_param_block(10, make_gemm(a_desc, b_desc, c_desc).pack());
  cpu.execute_source("ma_cfg x5, x10");
  system.run();
  cpu.execute_source("ma_state x6, x5");
  const std::uint64_t state = cpu.regs().read(6);
  EXPECT_EQ(state & 0b11, 0b11u);  // valid | done
  EXPECT_EQ(cpu.mtq().occupied(), 0u);
}

TEST(Integration, TwoProcessesShareNodeMtq) {
  // Process switch mid-flight (Fig. 3 state 3): process A dispatches, the
  // OS switches to process B, B dispatches its own task, and A's completion
  // is still recorded in its MTQ entry.
  MacoSystem system(small_config(1));
  Process& pa = system.create_process();
  Process& pb = system.create_process();

  util::Rng rng(31);
  const auto prepare = [&](Process& p) {
    const auto a = system.alloc_matrix(p, 64, 64);
    const auto b = system.alloc_matrix(p, 64, 64);
    const auto c = system.alloc_matrix(p, 64, 64);
    system.write_matrix(p, a, sa::HostMatrix::random(64, 64, rng));
    system.write_matrix(p, b, sa::HostMatrix::random(64, 64, rng));
    system.write_matrix(p, c, sa::HostMatrix(64, 64));
    return make_gemm(a, b, c);
  };
  const auto gemm_a = prepare(pa);
  const auto gemm_b = prepare(pb);

  cpu::CpuCore& cpu = system.node(0).cpu();
  system.schedule_process(0, pa);
  cpu.regs().write_param_block(10, gemm_a.pack());
  cpu.execute_source("ma_cfg x5, x10");
  const auto maid_a = static_cast<cpu::Maid>(cpu.regs().read(5));

  // Context switch before the task completes.
  system.schedule_process(0, pb);
  cpu.regs().write_param_block(10, gemm_b.pack());
  cpu.execute_source("ma_cfg x6, x10");
  const auto maid_b = static_cast<cpu::Maid>(cpu.regs().read(6));
  EXPECT_NE(maid_a, maid_b);

  system.run();

  // Both entries report done with their own ASIDs.
  EXPECT_TRUE(cpu.mtq().entry(maid_a).done);
  EXPECT_TRUE(cpu.mtq().entry(maid_b).done);
  EXPECT_EQ(cpu.mtq().entry(maid_a).asid, pa.asid);
  EXPECT_EQ(cpu.mtq().entry(maid_b).asid, pb.asid);
}

TEST(Integration, MultiNodeMappedGemm) {
  // Fig. 5 mapping, MPAIS-dense variant: split C into row stripes (dense
  // sub-matrices of A and C) so each node's MMAE computes its stripe with
  // the shared B; the assembled result matches the reference.
  MacoSystem system(small_config(4));
  Process& process = system.create_process();

  util::Rng rng(53);
  const std::uint64_t m = 128, n = 128, k = 96;
  const auto a_desc = system.alloc_matrix(process, m, k);
  const auto b_desc = system.alloc_matrix(process, k, n);
  const auto c_desc = system.alloc_matrix(process, m, n);
  const auto a = sa::HostMatrix::random(m, k, rng);
  const auto b = sa::HostMatrix::random(k, n, rng);
  system.write_matrix(process, a_desc, a);
  system.write_matrix(process, b_desc, b);
  system.write_matrix(process, c_desc, sa::HostMatrix(m, n));

  const std::uint64_t stripe = m / 4;
  for (unsigned node = 0; node < 4; ++node) {
    system.schedule_process(node, process);
    cpu::CpuCore& cpu = system.node(node).cpu();
    isa::GemmParams params;
    params.a_base = a_desc.element_addr(node * stripe, 0);
    params.b_base = b_desc.base;
    params.c_base = c_desc.element_addr(node * stripe, 0);
    params.m = static_cast<std::uint32_t>(stripe);
    params.n = static_cast<std::uint32_t>(n);
    params.k = static_cast<std::uint32_t>(k);
    cpu.regs().write_param_block(10, params.pack());
    cpu.execute_source("ma_cfg x5, x10");
  }
  system.run();

  for (unsigned node = 0; node < 4; ++node) {
    const auto maid =
        static_cast<cpu::Maid>(system.node(node).cpu().regs().read(5));
    EXPECT_TRUE(system.node(node).cpu().mtq().entry(maid).done);
    EXPECT_FALSE(system.node(node).cpu().mtq().entry(maid).exception_en);
  }

  sa::HostMatrix expected(m, n);
  sa::reference_gemm(a, b, expected);
  EXPECT_TRUE(system.read_matrix(process, c_desc).approx_equal(expected, 1e-9));
}

TEST(Integration, WalkOracleWarmsL3ForPageTables) {
  // First walk of a page table chain misses to DRAM; later walks of nearby
  // pages hit the L3 slice, shrinking latency.
  MacoSystem system(small_config(1));
  Process& process = system.create_process();
  system.schedule_process(0, process);
  const auto desc = system.alloc_matrix(process, 64, 512);

  cpu::Mmu& mmu = system.node(0).cpu().mmu();
  const auto first = mmu.translate_for_accelerator(
      process.asid, process.space->page_table(), desc.base);
  ASSERT_TRUE(first.valid);
  const auto second = mmu.translate_for_accelerator(
      process.asid, process.space->page_table(),
      desc.base + vm::kPageSize);  // neighboring page, different VPN
  ASSERT_TRUE(second.valid);
  EXPECT_LT(second.latency, first.latency);
}

}  // namespace
}  // namespace maco::core

namespace maco::core {
namespace {

TEST(Integration, Fp32PrecisionSameResultFasterArray) {
  // The SIMD compute modes (Fig. 2(c)): FP32 mode doubles MACs/cycle.
  // Functional values are FP64-backed (sa/host_matrix.hpp); timing
  // reflects the mode.
  sim::TimePs busy[2];
  for (int mode = 0; mode < 2; ++mode) {
    MacoSystem system(small_config(1));
    Process& process = system.create_process();
    system.schedule_process(0, process);
    util::Rng rng(11);
    const std::uint64_t dim = 128;
    const auto a_desc = system.alloc_matrix(process, dim, dim);
    const auto b_desc = system.alloc_matrix(process, dim, dim);
    const auto c_desc = system.alloc_matrix(process, dim, dim);
    const auto a = sa::HostMatrix::random(dim, dim, rng);
    const auto b = sa::HostMatrix::random(dim, dim, rng);
    system.write_matrix(process, a_desc, a);
    system.write_matrix(process, b_desc, b);
    system.write_matrix(process, c_desc, sa::HostMatrix(dim, dim));

    isa::GemmParams gemm = make_gemm(a_desc, b_desc, c_desc);
    gemm.precision = mode ? sa::Precision::kFp32 : sa::Precision::kFp64;
    cpu::CpuCore& cpu = system.node(0).cpu();
    cpu.regs().write_param_block(10, gemm.pack());
    cpu.execute_source("ma_cfg x5, x10");
    system.run();

    const auto& entry =
        cpu.mtq().entry(static_cast<cpu::Maid>(cpu.regs().read(5)));
    ASSERT_TRUE(entry.done);
    ASSERT_FALSE(entry.exception_en);
    sa::HostMatrix expected(dim, dim);
    sa::reference_gemm(a, b, expected);
    EXPECT_TRUE(
        system.read_matrix(process, c_desc).approx_equal(expected, 1e-9));
    busy[mode] = system.node(0).mmae().reports().front().sa_busy_ps;
  }
  // 2-way FP32 halves the array time.
  EXPECT_LT(busy[1], busy[0]);
  EXPECT_NEAR(static_cast<double>(busy[0]) / static_cast<double>(busy[1]),
              2.0, 0.2);
}

}  // namespace
}  // namespace maco::core

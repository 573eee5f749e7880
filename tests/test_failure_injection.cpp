// Failure injection at whole-system level: faults, exhaustion, and
// recovery flows that the module tests only exercise in isolation.
//
// These tests assert MACO's headline robustness claims over Gemmini-class
// designs (Section I): exception events are *recorded per task* in the MTQ,
// a faulting task terminates without wedging the MMAE, other processes and
// subsequent tasks are unaffected, and MA_CLEAR restores the entry.
#include <gtest/gtest.h>

#include <string>

#include "core/maco_system.hpp"
#include "util/rng.hpp"

namespace maco::core {
namespace {

SystemConfig one_node_config() {
  SystemConfig config = SystemConfig::maco_default();
  config.node_count = 1;
  return config;
}

isa::GemmParams gemm_of(const vm::MatrixDesc& a, const vm::MatrixDesc& b,
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

class FaultFixture : public ::testing::Test {
 protected:
  FaultFixture() : system_(one_node_config()), rng_(1234) {
    process_ = &system_.create_process();
    system_.schedule_process(0, *process_);
    a_desc_ = system_.alloc_matrix(*process_, 64, 64);
    b_desc_ = system_.alloc_matrix(*process_, 64, 64);
    c_desc_ = system_.alloc_matrix(*process_, 64, 64);
    a_ = sa::HostMatrix::random(64, 64, rng_);
    b_ = sa::HostMatrix::random(64, 64, rng_);
    system_.write_matrix(*process_, a_desc_, a_);
    system_.write_matrix(*process_, b_desc_, b_);
    system_.write_matrix(*process_, c_desc_, sa::HostMatrix(64, 64));
  }

  // Dispatches `params` on node 0, runs to completion, returns the entry.
  const cpu::MtqEntry& dispatch(const isa::GemmParams& params) {
    cpu::CpuCore& cpu = system_.node(0).cpu();
    cpu.regs().write_param_block(10, params.pack());
    cpu.execute_source("ma_cfg x5, x10");
    system_.run();
    return cpu.mtq().entry(static_cast<cpu::Maid>(cpu.regs().read(5)));
  }

  MacoSystem system_;
  util::Rng rng_;
  Process* process_ = nullptr;
  vm::MatrixDesc a_desc_, b_desc_, c_desc_;
  sa::HostMatrix a_, b_;
};

TEST_F(FaultFixture, UnmappedAFaults) {
  isa::GemmParams params = gemm_of(a_desc_, b_desc_, c_desc_);
  params.a_base = 0x7f00'0000'0000ull;  // never mapped
  const auto& entry = dispatch(params);
  EXPECT_TRUE(entry.done);
  EXPECT_TRUE(entry.exception_en);
  EXPECT_EQ(entry.exception_type, cpu::ExceptionType::kPageFault);
}

TEST_F(FaultFixture, UnmappedBFaults) {
  isa::GemmParams params = gemm_of(a_desc_, b_desc_, c_desc_);
  params.b_base = 0x7f00'0000'0000ull;
  const auto& entry = dispatch(params);
  EXPECT_TRUE(entry.exception_en);
  EXPECT_EQ(entry.exception_type, cpu::ExceptionType::kPageFault);
}

TEST_F(FaultFixture, UnmappedCFaults) {
  isa::GemmParams params = gemm_of(a_desc_, b_desc_, c_desc_);
  params.c_base = 0x7f00'0000'0000ull;
  const auto& entry = dispatch(params);
  EXPECT_TRUE(entry.exception_en);
  EXPECT_EQ(entry.exception_type, cpu::ExceptionType::kPageFault);
}

TEST_F(FaultFixture, PartiallyMappedOperandFaults) {
  // A matrix descriptor that runs past its mapped footprint: the early
  // tiles translate, a later page faults mid-task.
  isa::GemmParams params = gemm_of(a_desc_, b_desc_, c_desc_);
  params.m = 128;  // a_desc_ only maps 64 rows
  const auto& entry = dispatch(params);
  EXPECT_TRUE(entry.exception_en);
  EXPECT_EQ(entry.exception_type, cpu::ExceptionType::kPageFault);
}

TEST_F(FaultFixture, FaultDoesNotWedgeSubsequentTasks) {
  isa::GemmParams bad = gemm_of(a_desc_, b_desc_, c_desc_);
  bad.a_base = 0x7f00'0000'0000ull;
  cpu::CpuCore& cpu = system_.node(0).cpu();
  cpu.regs().write_param_block(10, bad.pack());
  cpu.execute_source("ma_cfg x5, x10");
  system_.run();
  cpu.execute_source("ma_clear x5");
  EXPECT_EQ(cpu.mtq().occupied(), 0u);

  // The same node immediately runs a clean GEMM with correct numerics.
  const auto& entry = dispatch(gemm_of(a_desc_, b_desc_, c_desc_));
  EXPECT_TRUE(entry.done);
  EXPECT_FALSE(entry.exception_en);
  sa::HostMatrix expected(64, 64);
  sa::reference_gemm(a_, b_, expected);
  EXPECT_TRUE(
      system_.read_matrix(*process_, c_desc_).approx_equal(expected, 1e-9));
}

TEST_F(FaultFixture, ZeroDimensionRejectedAsInvalidConfig) {
  isa::GemmParams params = gemm_of(a_desc_, b_desc_, c_desc_);
  params.n = 0;
  const auto& entry = dispatch(params);
  EXPECT_TRUE(entry.exception_en);
  EXPECT_EQ(entry.exception_type, cpu::ExceptionType::kInvalidConfig);
}

TEST_F(FaultFixture, OversizedInnerTileRejected) {
  isa::GemmParams params = gemm_of(a_desc_, b_desc_, c_desc_);
  params.inner_tile_rows = 4096;  // 4096*64*8 bytes >> 64 KiB A bank
  params.inner_tile_cols = 4096;
  const auto& entry = dispatch(params);
  EXPECT_TRUE(entry.exception_en);
  EXPECT_NE(entry.exception_type, cpu::ExceptionType::kNone);
}

// A region op (MA_MOVE, MA_INIT or MA_STASH) given either a zero row length
// (kInvalidConfig) or an unmapped region (kPageFault; MA_MOVE's source).
struct RegionFault {
  isa::Mnemonic op;
  bool zero_row_bytes;
};

void PrintTo(const RegionFault& fault, std::ostream* os) {
  *os << isa::mnemonic_name(fault.op)
      << (fault.zero_row_bytes ? " with zero row_bytes" : " unmapped");
}

class RegionOpFault : public FaultFixture,
                      public ::testing::WithParamInterface<RegionFault> {};

TEST_P(RegionOpFault, RecordsException) {
  const RegionFault fault = GetParam();
  const vm::VirtAddr region =
      fault.zero_row_bytes ? c_desc_.base : 0x7f00'0000'0000ull;
  const std::uint32_t row_bytes = fault.zero_row_bytes ? 0 : 512;
  isa::ParamBlock block{};
  switch (fault.op) {
    case isa::Mnemonic::kMaMove: {
      isa::MoveParams move;
      move.src = region;
      move.dst = c_desc_.base;
      move.rows = 4;
      move.row_bytes = row_bytes;
      move.src_stride = move.dst_stride = 512;
      block = move.pack();
      break;
    }
    case isa::Mnemonic::kMaInit: {
      isa::InitParams init;
      init.dst = region;
      init.rows = 4;
      init.row_bytes = row_bytes;
      init.stride = 512;
      block = init.pack();
      break;
    }
    default: {
      isa::StashParams stash;
      stash.base = region;
      stash.rows = 4;
      stash.row_bytes = row_bytes;
      stash.stride = 512;
      block = stash.pack();
      break;
    }
  }
  cpu::CpuCore& cpu = system_.node(0).cpu();
  cpu.regs().write_param_block(10, block);
  cpu.execute_source(std::string(isa::mnemonic_name(fault.op)) + " x5, x10");
  system_.run();
  const auto& entry =
      cpu.mtq().entry(static_cast<cpu::Maid>(cpu.regs().read(5)));
  EXPECT_TRUE(entry.done);
  EXPECT_TRUE(entry.exception_en);
  EXPECT_EQ(entry.exception_type, fault.zero_row_bytes
                                      ? cpu::ExceptionType::kInvalidConfig
                                      : cpu::ExceptionType::kPageFault);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, RegionOpFault,
    ::testing::Values(RegionFault{isa::Mnemonic::kMaMove, true},
                      RegionFault{isa::Mnemonic::kMaMove, false},
                      RegionFault{isa::Mnemonic::kMaInit, true},
                      RegionFault{isa::Mnemonic::kMaInit, false},
                      RegionFault{isa::Mnemonic::kMaStash, true},
                      RegionFault{isa::Mnemonic::kMaStash, false}),
    [](const ::testing::TestParamInfo<RegionFault>& info) {
      // "ma_move" -> "move_zero_row_bytes" or "move_unmapped".
      return std::string(isa::mnemonic_name(info.param.op) + 3) +
             (info.param.zero_row_bytes ? "_zero_row_bytes" : "_unmapped");
    });

TEST_F(FaultFixture, MtqExhaustionReturnsSentinelAndRecovers) {
  cpu::CpuCore& cpu = system_.node(0).cpu();
  const isa::GemmParams params = gemm_of(a_desc_, b_desc_, c_desc_);
  cpu.regs().write_param_block(10, params.pack());

  // Fill every MTQ entry without draining the simulator.
  const unsigned capacity = cpu.mtq().capacity();
  std::vector<cpu::Maid> maids;
  for (unsigned i = 0; i < capacity; ++i) {
    cpu.execute_source("ma_cfg x5, x10");
    const std::uint64_t maid = cpu.regs().read(5);
    ASSERT_NE(maid, cpu::kMaidAllocFailed) << "entry " << i;
    maids.push_back(static_cast<cpu::Maid>(maid));
  }
  // One more must fail with the documented sentinel.
  auto stats = cpu.execute_source("ma_cfg x6, x10");
  EXPECT_EQ(cpu.regs().read(6), cpu::kMaidAllocFailed);
  EXPECT_EQ(stats.mtq_alloc_failures, 1u);

  // Drain, release one entry, and allocation works again.
  system_.run();
  cpu.regs().write(7, maids.front());
  cpu.execute_source("ma_state x8, x7");
  cpu.execute_source("ma_cfg x6, x10");
  EXPECT_NE(cpu.regs().read(6), cpu::kMaidAllocFailed);
  system_.run();
}

TEST_F(FaultFixture, StqRejectionSurfacesAsInvalidConfig) {
  // An MMAE whose STQ is smaller than the MTQ: dispatches beyond the slave
  // capacity are refused and surfaced in the MTQ as exceptions.
  SystemConfig config = one_node_config();
  config.mmae.stq_entries = 2;
  MacoSystem small(config);
  Process& process = small.create_process();
  small.schedule_process(0, process);
  const auto a = small.alloc_matrix(process, 64, 64);
  const auto b = small.alloc_matrix(process, 64, 64);
  const auto c = small.alloc_matrix(process, 64, 64);
  util::Rng rng(5);
  small.write_matrix(process, a, sa::HostMatrix::random(64, 64, rng));
  small.write_matrix(process, b, sa::HostMatrix::random(64, 64, rng));
  small.write_matrix(process, c, sa::HostMatrix(64, 64));

  cpu::CpuCore& cpu = small.node(0).cpu();
  cpu.regs().write_param_block(10, gemm_of(a, b, c).pack());
  cpu::CpuCore::ExecStats stats;
  const auto program = isa::assemble(
      "ma_cfg x5, x10\n"
      "ma_cfg x6, x10\n"
      "ma_cfg x7, x10\n");  // third exceeds the 2-entry STQ
  ASSERT_TRUE(program.ok());
  for (const auto& instruction : program.program) {
    cpu.step(instruction, stats);
  }
  EXPECT_EQ(stats.submit_rejections, 1u);
  const auto& rejected =
      cpu.mtq().entry(static_cast<cpu::Maid>(cpu.regs().read(7)));
  EXPECT_TRUE(rejected.exception_en);
  EXPECT_EQ(rejected.exception_type, cpu::ExceptionType::kInvalidConfig);

  // The two accepted tasks still complete cleanly.
  small.run();
  EXPECT_TRUE(cpu.mtq().entry(static_cast<cpu::Maid>(cpu.regs().read(5))).done);
  EXPECT_TRUE(cpu.mtq().entry(static_cast<cpu::Maid>(cpu.regs().read(6))).done);
}

TEST(FaultIsolation, FaultingProcessDoesNotDisturbPeer) {
  // Two processes on one node: process A's task faults, process B's task
  // (queued behind it) completes with correct numerics.
  MacoSystem system(one_node_config());
  Process& pa = system.create_process();
  Process& pb = system.create_process();
  util::Rng rng(9);

  const auto b_a = system.alloc_matrix(pb, 64, 64);
  const auto b_b = system.alloc_matrix(pb, 64, 64);
  const auto b_c = system.alloc_matrix(pb, 64, 64);
  const auto bm_a = sa::HostMatrix::random(64, 64, rng);
  const auto bm_b = sa::HostMatrix::random(64, 64, rng);
  system.write_matrix(pb, b_a, bm_a);
  system.write_matrix(pb, b_b, bm_b);
  system.write_matrix(pb, b_c, sa::HostMatrix(64, 64));

  cpu::CpuCore& cpu = system.node(0).cpu();

  system.schedule_process(0, pa);
  isa::GemmParams bad;
  bad.a_base = bad.b_base = bad.c_base = 0x7f00'0000'0000ull;
  bad.m = bad.n = bad.k = 64;
  cpu.regs().write_param_block(10, bad.pack());
  cpu.execute_source("ma_cfg x5, x10");

  system.schedule_process(0, pb);
  cpu.regs().write_param_block(10, gemm_of(b_a, b_b, b_c).pack());
  cpu.execute_source("ma_cfg x6, x10");

  system.run();

  const auto& entry_a =
      cpu.mtq().entry(static_cast<cpu::Maid>(cpu.regs().read(5)));
  const auto& entry_b =
      cpu.mtq().entry(static_cast<cpu::Maid>(cpu.regs().read(6)));
  EXPECT_TRUE(entry_a.exception_en);
  EXPECT_EQ(entry_a.asid, pa.asid);
  EXPECT_TRUE(entry_b.done);
  EXPECT_FALSE(entry_b.exception_en);

  sa::HostMatrix expected(64, 64);
  sa::reference_gemm(bm_a, bm_b, expected);
  EXPECT_TRUE(system.read_matrix(pb, b_c).approx_equal(expected, 1e-9));
}

TEST(FaultIsolation, ExceptionEntrySurvivesProcessSwitchUntilCleared) {
  // Fig. 3 state 4: the exception stays recorded across context switches
  // until software runs MA_CLEAR.
  MacoSystem system(one_node_config());
  Process& pa = system.create_process();
  Process& pb = system.create_process();
  cpu::CpuCore& cpu = system.node(0).cpu();

  system.schedule_process(0, pa);
  isa::GemmParams bad;
  bad.a_base = bad.b_base = bad.c_base = 0x7f00'0000'0000ull;
  bad.m = bad.n = bad.k = 64;
  cpu.regs().write_param_block(10, bad.pack());
  cpu.execute_source("ma_cfg x5, x10");
  system.run();
  const auto maid = static_cast<cpu::Maid>(cpu.regs().read(5));

  system.schedule_process(0, pb);  // switch away
  EXPECT_TRUE(cpu.mtq().entry(maid).exception_en);
  EXPECT_EQ(cpu.mtq().entry(maid).asid, pa.asid);

  system.schedule_process(0, pa);  // switch back; still there
  EXPECT_TRUE(cpu.mtq().entry(maid).exception_en);
  cpu.execute_source("ma_clear x5");
  EXPECT_FALSE(cpu.mtq().entry(maid).valid);
  EXPECT_FALSE(cpu.mtq().entry(maid).exception_en);
}

}  // namespace
}  // namespace maco::core

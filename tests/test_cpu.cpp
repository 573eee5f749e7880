#include <gtest/gtest.h>

#include "cpu/core.hpp"
#include "cpu/mmu.hpp"
#include "cpu/mtq.hpp"
#include "cpu/scalar_kernels.hpp"

namespace maco::cpu {
namespace {

// ---------------- MTQ: the Fig. 3 state machine ----------------

TEST(Mtq, AllocateSetsValidAndAsid) {
  MasterTaskQueue mtq(4);
  const auto maid = mtq.allocate(7);
  ASSERT_TRUE(maid.has_value());
  const MtqEntry& e = mtq.entry(*maid);
  EXPECT_TRUE(e.valid);
  EXPECT_FALSE(e.done);
  EXPECT_EQ(e.asid, 7);
  EXPECT_TRUE(e.asid_valid);
}

TEST(Mtq, ExhaustionFailsAllocation) {
  MasterTaskQueue mtq(2);
  EXPECT_TRUE(mtq.allocate(1).has_value());
  EXPECT_TRUE(mtq.allocate(1).has_value());
  EXPECT_FALSE(mtq.allocate(1).has_value());
  EXPECT_EQ(mtq.allocation_failures(), 1u);
}

TEST(Mtq, NormalLifecycle) {
  // Fig. 3 states 1 -> 2: task performs, completes without exceptions,
  // MA_STATE releases the entry.
  MasterTaskQueue mtq(4);
  const Maid maid = *mtq.allocate(3);
  mtq.mark_done(maid);
  const auto snapshot = mtq.read_and_release(maid);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_TRUE(snapshot->done);
  EXPECT_FALSE(snapshot->exception_en);
  // Entry is free again (ASID = NULL).
  EXPECT_FALSE(mtq.entry(maid).valid);
  EXPECT_FALSE(mtq.entry(maid).asid_valid);
  EXPECT_EQ(mtq.occupied(), 0u);
}

TEST(Mtq, StateThreeAsidMismatchDetectable) {
  // Fig. 3 state 3: the entry was released and re-allocated to process #01;
  // process #00 can still detect completion via Done + ASID mismatch.
  MasterTaskQueue mtq(1);
  const Maid maid = *mtq.allocate(/*asid=*/0);
  mtq.mark_done(maid);
  ASSERT_TRUE(mtq.read_and_release(maid).has_value());
  const Maid reused = *mtq.allocate(/*asid=*/1);
  EXPECT_EQ(reused, maid);  // same entry re-used
  const auto view = mtq.read(maid);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->asid, 1);  // ASID no longer matches process #00
  EXPECT_FALSE(view->done);
}

TEST(Mtq, ExceptionPathRequiresClear) {
  // Fig. 3 state 4: exception terminates the task; MA_STATE does not free
  // the entry, MA_CLEAR does.
  MasterTaskQueue mtq(2);
  const Maid maid = *mtq.allocate(5);
  mtq.mark_exception(maid, ExceptionType::kPageFault);
  const auto snapshot = mtq.read_and_release(maid);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_TRUE(snapshot->exception_en);
  EXPECT_EQ(snapshot->exception_type, ExceptionType::kPageFault);
  EXPECT_TRUE(mtq.entry(maid).valid);  // still allocated
  EXPECT_TRUE(mtq.clear(maid));
  EXPECT_FALSE(mtq.entry(maid).valid);
}

TEST(Mtq, PackStateEncodesFields) {
  MtqEntry e;
  e.valid = true;
  e.done = true;
  e.exception_en = true;
  e.exception_type = ExceptionType::kBufferOverflow;
  e.asid = 0x1234;
  e.asid_valid = true;
  const std::uint64_t word = pack_state(e);
  EXPECT_EQ(word & 1, 1u);
  EXPECT_EQ((word >> 1) & 1, 1u);
  EXPECT_EQ((word >> 2) & 1, 1u);
  EXPECT_EQ((word >> 4) & 0xF,
            static_cast<std::uint64_t>(ExceptionType::kBufferOverflow));
  EXPECT_EQ((word >> 16) & 0xFFFF, 0x1234u);
  EXPECT_EQ((word >> 32) & 1, 1u);
}

// ---------------- MMU ----------------

class MmuTest : public ::testing::Test {
 protected:
  MmuTest()
      : table_(0x1000000), oracle_(10'000), mmu_("mmu", MmuConfig{}, oracle_) {
    table_.map(0x40000000, 0x5000);
  }
  vm::PageTable table_;
  vm::FixedLatencyOracle oracle_;
  Mmu mmu_;
};

TEST_F(MmuTest, WalkThenTlbHits) {
  const auto first = mmu_.translate_for_accelerator(1, table_, 0x40000123);
  EXPECT_TRUE(first.valid);
  EXPECT_EQ(first.source, TranslationSource::kPageWalk);
  EXPECT_EQ(first.phys, 0x5123u);

  const auto second = mmu_.translate_for_accelerator(1, table_, 0x40000456);
  EXPECT_TRUE(second.valid);
  EXPECT_EQ(second.source, TranslationSource::kSharedTlb);
  EXPECT_EQ(second.phys, 0x5456u);
  EXPECT_EQ(second.latency, MmuConfig{}.l2_tlb_latency_ps);
}

TEST_F(MmuTest, AcceleratorPathSkipsL1) {
  // The MMAE reaches translation through the sTLB alone: a walk fills the
  // sTLB with one entry, and the next access to the page hits there at the
  // L2 TLB latency.
  const auto first = mmu_.translate_for_accelerator(1, table_, 0x40000000);
  EXPECT_TRUE(first.valid);
  EXPECT_TRUE(mmu_.shared_tlb().contains(1, 0x40000));
  EXPECT_EQ(mmu_.shared_tlb().size(), 1u);
  const auto second = mmu_.translate_for_accelerator(1, table_, 0x40000008);
  EXPECT_EQ(second.source, TranslationSource::kSharedTlb);
  EXPECT_EQ(second.latency, MmuConfig{}.l2_tlb_latency_ps);
}

TEST_F(MmuTest, FaultOnUnmapped) {
  const auto result = mmu_.translate_for_accelerator(1, table_, 0x90000000);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.source, TranslationSource::kFault);
}

// ---------------- kernel cost models ----------------

TEST(Kernels, GemmScalesWithWork) {
  CpuKernelModel k;
  const auto small = k.gemm_cycles(64, 64, 64, sa::Precision::kFp32);
  const auto big = k.gemm_cycles(128, 128, 128, sa::Precision::kFp32);
  EXPECT_NEAR(static_cast<double>(big) / small, 8.0, 0.1);
}

TEST(Kernels, Fp32DoublesThroughput) {
  CpuKernelModel k;
  const auto fp64 = k.gemm_cycles(256, 256, 256, sa::Precision::kFp64);
  const auto fp32 = k.gemm_cycles(256, 256, 256, sa::Precision::kFp32);
  EXPECT_NEAR(static_cast<double>(fp64) / fp32, 2.0, 0.1);
}

TEST(Kernels, PeakMatchesTableIV) {
  CpuKernelModel k;
  EXPECT_NEAR(k.peak_flops(sa::Precision::kFp64), 35.2e9, 1e8);
  EXPECT_NEAR(k.peak_flops(sa::Precision::kFp32), 70.4e9, 1e8);
}

TEST(Kernels, SoftmaxCostExceedsRelu) {
  CpuKernelModel k;
  const auto softmax = k.softmax_cycles(384, 384, sa::Precision::kFp32);
  const auto relu = k.relu_cycles(384 * 384, sa::Precision::kFp32);
  EXPECT_GT(softmax, relu);
}

// ---------------- CpuCore MPAIS execution ----------------

class RecordingPort final : public AcceleratorPort {
 public:
  struct Submission {
    Maid maid;
    isa::Mnemonic op;
    isa::ParamBlock params;
    vm::Asid asid;
  };
  bool submit(Maid maid, isa::Mnemonic op, const isa::ParamBlock& params,
              vm::Asid asid) override {
    if (reject) return false;
    submissions.push_back({maid, op, params, asid});
    return true;
  }
  std::vector<Submission> submissions;
  bool reject = false;
};

class CpuCoreTest : public ::testing::Test {
 protected:
  CpuCoreTest() : oracle_(10'000), core_(0, CpuConfig{}, oracle_) {
    core_.attach_accelerator(&port_);
    core_.set_context(9);
  }
  vm::FixedLatencyOracle oracle_;
  RecordingPort port_;
  CpuCore core_;
};

TEST_F(CpuCoreTest, MaCfgAllocatesAndSubmits) {
  isa::GemmParams gemm;
  gemm.m = gemm.n = gemm.k = 128;
  core_.regs().write_param_block(10, gemm.pack());
  const auto stats = core_.execute_source("ma_cfg x5, x10");
  EXPECT_EQ(stats.tasks_dispatched, 1u);
  ASSERT_EQ(port_.submissions.size(), 1u);
  EXPECT_EQ(port_.submissions[0].asid, 9);
  EXPECT_EQ(core_.regs().read(5), port_.submissions[0].maid);
  EXPECT_EQ(isa::GemmParams::unpack(port_.submissions[0].params), gemm);
}

TEST_F(CpuCoreTest, MaidFailureSentinelWhenMtqFull) {
  isa::GemmParams gemm;
  gemm.m = gemm.n = gemm.k = 64;
  core_.regs().write_param_block(10, gemm.pack());
  // Fill the MTQ (default 8 entries).
  for (unsigned i = 0; i < core_.config().mtq_entries; ++i) {
    core_.execute_source("ma_cfg x5, x10");
  }
  const auto stats = core_.execute_source("ma_cfg x5, x10");
  EXPECT_EQ(stats.mtq_alloc_failures, 1u);
  EXPECT_EQ(core_.regs().read(5), kMaidAllocFailed);
}

TEST_F(CpuCoreTest, ReadAndStateQueryMtq) {
  isa::GemmParams gemm;
  gemm.m = gemm.n = gemm.k = 64;
  core_.regs().write_param_block(10, gemm.pack());
  core_.execute_source("ma_cfg x5, x10");
  const Maid maid = static_cast<Maid>(core_.regs().read(5));
  core_.mtq().mark_done(maid);

  core_.execute_source("ma_read x6, x5");
  const std::uint64_t read_word = core_.regs().read(6);
  EXPECT_EQ(read_word & 0b11, 0b11u);  // valid | done

  core_.execute_source("ma_state x7, x5");
  EXPECT_EQ(core_.regs().read(7) & 0b11, 0b11u);
  EXPECT_FALSE(core_.mtq().entry(maid).valid);  // released
}

TEST_F(CpuCoreTest, ClearRecoversFromRejectedSubmit) {
  port_.reject = true;
  isa::GemmParams gemm;
  gemm.m = gemm.n = gemm.k = 64;
  core_.regs().write_param_block(10, gemm.pack());
  const auto stats = core_.execute_source("ma_cfg x5, x10");
  EXPECT_EQ(stats.submit_rejections, 1u);
  const Maid maid = static_cast<Maid>(core_.regs().read(5));
  EXPECT_TRUE(core_.mtq().entry(maid).exception_en);
  core_.execute_source("ma_clear x5");
  EXPECT_FALSE(core_.mtq().entry(maid).valid);
}

TEST_F(CpuCoreTest, IssueCyclesAccumulate) {
  isa::GemmParams gemm;
  gemm.m = gemm.n = gemm.k = 64;
  core_.regs().write_param_block(10, gemm.pack());
  const auto stats = core_.execute_source(R"(
    ma_cfg x5, x10
    ma_read x6, x5
  )");
  EXPECT_EQ(stats.instructions, 2u);
  EXPECT_EQ(stats.cycles, 12u);  // 8 (cfg) + 4 (read)
}

}  // namespace
}  // namespace maco::cpu

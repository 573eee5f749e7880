// MMAE end-to-end: STQ semantics, DMA with predictive vs blocking
// translation, and full GEMM tasks through the accelerator controller
// (functional data + task lifecycle + exceptions).
#include <gtest/gtest.h>

#include <algorithm>

#include "mem/physical_memory.hpp"
#include "mmae/accelerator_controller.hpp"
#include "mmae/stq.hpp"
#include "sa/host_matrix.hpp"
#include "sa/latency_model.hpp"
#include "util/rng.hpp"

namespace maco::mmae {
namespace {

// Fixed-latency, bandwidth-limited backend over physical memory.
class TestBackend final : public MemoryBackend {
 public:
  explicit TestBackend(mem::PhysicalMemory& memory, double bytes_per_second = 64e9,
                       sim::TimePs latency = 10'000)
      : memory_(memory), bw_(bytes_per_second), latency_(latency) {}

  sim::TimePs read(int, vm::PhysAddr pa, void* out, std::uint32_t bytes,
                   sim::TimePs start) override {
    memory_.read(pa, out, bytes);
    bytes_read += bytes;
    return start + latency_ + transfer_ps(bytes);
  }
  sim::TimePs write(int, vm::PhysAddr pa, const void* data,
                    std::uint32_t bytes, sim::TimePs start) override {
    memory_.write(pa, data, bytes);
    bytes_written += bytes;
    return start + latency_ + transfer_ps(bytes);
  }
  sim::TimePs stash(int, vm::PhysAddr, std::uint32_t bytes, bool lock,
                    sim::TimePs start) override {
    stashed_bytes += bytes;
    if (lock) locked_bytes += bytes;
    return start + latency_ + transfer_ps(bytes);
  }

  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t stashed_bytes = 0;
  std::uint64_t locked_bytes = 0;

 private:
  sim::TimePs transfer_ps(std::uint32_t bytes) const {
    return static_cast<sim::TimePs>(bytes / bw_ * 1e12);
  }
  mem::PhysicalMemory& memory_;
  double bw_;
  sim::TimePs latency_;
};

TEST(Stq, PushDecodeExecuteLifecycle) {
  SlaveTaskQueue stq(2);
  isa::GemmParams gemm;
  gemm.m = gemm.n = gemm.k = 64;
  EXPECT_TRUE(stq.push(3, isa::Mnemonic::kMaCfg, gemm.pack(), 7));
  const auto pending = stq.next_pending();
  ASSERT_TRUE(pending.has_value());
  const StqEntry& e = stq.entry(*pending);
  EXPECT_EQ(e.maid, 3u);
  EXPECT_EQ(e.asid, 7);
  EXPECT_EQ(std::get<isa::GemmParams>(e.params), gemm);
  stq.mark_running(*pending);
  stq.complete(*pending, cpu::ExceptionType::kNone);
  EXPECT_EQ(stq.entry(*pending).state, StqState::kDone);
  stq.release(*pending);
  EXPECT_EQ(stq.occupied(), 0u);
}

TEST(Stq, FifoOrderAcrossEntries) {
  SlaveTaskQueue stq(4);
  isa::MoveParams move;
  move.row_bytes = 64;
  stq.push(0, isa::Mnemonic::kMaMove, move.pack(), 1);
  stq.push(1, isa::Mnemonic::kMaMove, move.pack(), 1);
  EXPECT_EQ(*stq.next_pending(), 0u);
  stq.mark_running(0);
  EXPECT_EQ(*stq.next_pending(), 1u);
}

TEST(Stq, FullQueueRejects) {
  SlaveTaskQueue stq(1);
  isa::MoveParams move;
  move.row_bytes = 64;
  EXPECT_TRUE(stq.push(0, isa::Mnemonic::kMaMove, move.pack(), 1));
  EXPECT_FALSE(stq.push(1, isa::Mnemonic::kMaMove, move.pack(), 1));
}

// ---------------- full-node fixture ----------------

class MmaeFixture : public ::testing::Test {
 protected:
  MmaeFixture()
      : backend_(memory_), walk_oracle_(8'000),
        space_(kAsid, 0x0100000000, 0x1000000000) {
    cpu_ = std::make_unique<cpu::CpuCore>(0, cpu::CpuConfig{}, walk_oracle_);
    MmaeConfig config;
    ac_ = std::make_unique<AcceleratorController>(engine_, 0, config,
                                                  backend_, *cpu_);
    cpu_->attach_accelerator(ac_.get());
    cpu_->set_context(kAsid, &space_.page_table());
  }

  vm::MatrixDesc alloc_matrix(std::uint64_t rows, std::uint64_t cols) {
    vm::MatrixDesc desc;
    desc.rows = rows;
    desc.cols = cols;
    desc.elem_bytes = 8;
    desc.base = space_.alloc(rows * cols * 8);
    return desc;
  }

  void write_matrix(const vm::MatrixDesc& desc, const sa::HostMatrix& m) {
    for (std::uint64_t r = 0; r < desc.rows; ++r) {
      for (std::uint64_t c = 0; c < desc.cols; ++c) {
        memory_.write_f64(*space_.page_table().translate(
                              desc.element_addr(r, c)),
                          m.at(r, c));
      }
    }
  }

  sa::HostMatrix read_matrix(const vm::MatrixDesc& desc) {
    sa::HostMatrix out(desc.rows, desc.cols);
    for (std::uint64_t r = 0; r < desc.rows; ++r) {
      for (std::uint64_t c = 0; c < desc.cols; ++c) {
        out.at(r, c) = memory_.read_f64(
            *space_.page_table().translate(desc.element_addr(r, c)));
      }
    }
    return out;
  }

  // Dispatch a GEMM through the MPAIS path and run to completion.
  cpu::Maid dispatch_gemm(const isa::GemmParams& params) {
    cpu_->regs().write_param_block(10, params.pack());
    cpu_->execute_source("ma_cfg x5, x10");
    engine_.run();
    return static_cast<cpu::Maid>(cpu_->regs().read(5));
  }

  static constexpr vm::Asid kAsid = 4;
  sim::SimEngine engine_;
  mem::PhysicalMemory memory_;
  TestBackend backend_;
  vm::FixedLatencyOracle walk_oracle_;
  vm::AddressSpace space_;
  std::unique_ptr<cpu::CpuCore> cpu_;
  std::unique_ptr<AcceleratorController> ac_;
};

TEST_F(MmaeFixture, GemmMatchesReference) {
  util::Rng rng(11);
  const std::uint64_t m = 96, n = 80, k = 72;
  const auto a_desc = alloc_matrix(m, k);
  const auto b_desc = alloc_matrix(k, n);
  const auto c_desc = alloc_matrix(m, n);
  const auto a = sa::HostMatrix::random(m, k, rng);
  const auto b = sa::HostMatrix::random(k, n, rng);
  const auto c = sa::HostMatrix::random(m, n, rng);
  write_matrix(a_desc, a);
  write_matrix(b_desc, b);
  write_matrix(c_desc, c);

  isa::GemmParams params;
  params.a_base = a_desc.base;
  params.b_base = b_desc.base;
  params.c_base = c_desc.base;
  params.m = m;
  params.n = n;
  params.k = k;
  const cpu::Maid maid = dispatch_gemm(params);

  EXPECT_TRUE(cpu_->mtq().entry(maid).done);
  EXPECT_FALSE(cpu_->mtq().entry(maid).exception_en);

  sa::HostMatrix expected = c;
  sa::reference_gemm(a, b, expected);
  EXPECT_TRUE(read_matrix(c_desc).approx_equal(expected, 1e-9));

  ASSERT_EQ(ac_->reports().size(), 1u);
  const TaskReport& report = ac_->reports().front();
  EXPECT_EQ(report.macs, m * n * k);
  EXPECT_GT(report.end, report.start);
  EXPECT_GT(report.dma_bytes, 0u);
}

TEST_F(MmaeFixture, NonAccumulateOverwritesC) {
  util::Rng rng(13);
  const std::uint64_t dim = 64;
  const auto a_desc = alloc_matrix(dim, dim);
  const auto b_desc = alloc_matrix(dim, dim);
  const auto c_desc = alloc_matrix(dim, dim);
  const auto a = sa::HostMatrix::random(dim, dim, rng);
  const auto b = sa::HostMatrix::random(dim, dim, rng);
  write_matrix(a_desc, a);
  write_matrix(b_desc, b);
  write_matrix(c_desc, sa::HostMatrix::random(dim, dim, rng));  // garbage

  isa::GemmParams params;
  params.a_base = a_desc.base;
  params.b_base = b_desc.base;
  params.c_base = c_desc.base;
  params.m = params.n = params.k = dim;
  params.accumulate = false;
  // 32×32 inner tiles: K is chunked by the inner tile too, so the array
  // runs eight 32³ blocks.
  params.inner_tile_rows = params.inner_tile_cols = 32;
  dispatch_gemm(params);

  sa::HostMatrix expected(dim, dim);
  sa::reference_gemm(a, b, expected);
  EXPECT_TRUE(read_matrix(c_desc).approx_equal(expected, 1e-9));

  ASSERT_EQ(ac_->reports().size(), 1u);
  sa::SaConfig sa_config = ac_->config().sa;
  sa_config.precision = params.precision;
  const sim::TimePs block_ps = ac_->cycles_to_ps(
      sa::compute_sa_timing(sa::TileShape{32, 32, 32}, sa_config).total_cycles);
  EXPECT_EQ(ac_->reports().front().sa_busy_ps, 8 * block_ps);
}

TEST_F(MmaeFixture, UnmappedMatrixRaisesPageFault) {
  isa::GemmParams params;
  params.a_base = 0x7FFF00000000ull;  // never mapped
  params.b_base = params.a_base + (1 << 20);
  params.c_base = params.a_base + (2 << 20);
  params.m = params.n = params.k = 64;
  const cpu::Maid maid = dispatch_gemm(params);
  const cpu::MtqEntry& entry = cpu_->mtq().entry(maid);
  EXPECT_TRUE(entry.done);
  EXPECT_TRUE(entry.exception_en);
  EXPECT_EQ(entry.exception_type, cpu::ExceptionType::kPageFault);
}

TEST_F(MmaeFixture, OversizedInnerTileRaisesBufferOverflow) {
  const auto a_desc = alloc_matrix(256, 256);
  isa::GemmParams params;
  params.a_base = params.b_base = params.c_base = a_desc.base;
  params.m = params.n = params.k = 256;
  params.inner_tile_rows = 256;  // 256×64×8 = 128 KiB > 32 KiB bank
  const cpu::Maid maid = dispatch_gemm(params);
  EXPECT_EQ(cpu_->mtq().entry(maid).exception_type,
            cpu::ExceptionType::kBufferOverflow);
}

TEST_F(MmaeFixture, ZeroDimensionRaisesInvalidConfig) {
  isa::GemmParams params;
  params.m = 0;
  params.n = params.k = 64;
  const cpu::Maid maid = dispatch_gemm(params);
  EXPECT_EQ(cpu_->mtq().entry(maid).exception_type,
            cpu::ExceptionType::kInvalidConfig);
}

TEST_F(MmaeFixture, MoveCopiesData) {
  const auto src = alloc_matrix(16, 64);
  const auto dst = alloc_matrix(16, 64);
  util::Rng rng(17);
  const auto values = sa::HostMatrix::random(16, 64, rng);
  write_matrix(src, values);

  isa::MoveParams move;
  move.src = src.base;
  move.dst = dst.base;
  move.rows = 16;
  move.row_bytes = 64 * 8;
  move.src_stride = src.stride();
  move.dst_stride = dst.stride();
  cpu_->regs().write_param_block(10, move.pack());
  cpu_->execute_source("ma_move x5, x10");
  engine_.run();

  EXPECT_TRUE(read_matrix(dst).approx_equal(values, 0.0));
}

TEST_F(MmaeFixture, InitZeroesRegion) {
  const auto dst = alloc_matrix(8, 64);
  util::Rng rng(19);
  write_matrix(dst, sa::HostMatrix::random(8, 64, rng));

  isa::InitParams init;
  init.dst = dst.base;
  init.rows = 8;
  init.row_bytes = 64 * 8;
  init.stride = dst.stride();
  cpu_->regs().write_param_block(10, init.pack());
  cpu_->execute_source("ma_init x5, x10");
  engine_.run();

  const auto result = read_matrix(dst);
  for (std::uint64_t r = 0; r < 8; ++r) {
    for (std::uint64_t c = 0; c < 64; ++c) {
      EXPECT_DOUBLE_EQ(result.at(r, c), 0.0);
    }
  }
}

TEST_F(MmaeFixture, StashIssuesPrefetchWithLock) {
  const auto m = alloc_matrix(16, 64);
  isa::StashParams stash;
  stash.base = m.base;
  stash.rows = 16;
  stash.row_bytes = 64 * 8;
  stash.stride = m.stride();
  stash.lock = true;
  cpu_->regs().write_param_block(10, stash.pack());
  cpu_->execute_source("ma_stash x5, x10");
  engine_.run();
  EXPECT_EQ(backend_.stashed_bytes, 16u * 64 * 8);
  EXPECT_EQ(backend_.locked_bytes, 16u * 64 * 8);
}

TEST_F(MmaeFixture, BackToBackTasksSerializeInOrder) {
  util::Rng rng(23);
  const auto a_desc = alloc_matrix(64, 64);
  const auto b_desc = alloc_matrix(64, 64);
  const auto c_desc = alloc_matrix(64, 64);
  write_matrix(a_desc, sa::HostMatrix::random(64, 64, rng));
  write_matrix(b_desc, sa::HostMatrix::random(64, 64, rng));
  write_matrix(c_desc, sa::HostMatrix(64, 64));

  isa::GemmParams params;
  params.a_base = a_desc.base;
  params.b_base = b_desc.base;
  params.c_base = c_desc.base;
  params.m = params.n = params.k = 64;
  cpu_->regs().write_param_block(10, params.pack());
  cpu_->execute_source("ma_cfg x5, x10");
  cpu_->execute_source("ma_cfg x6, x10");
  engine_.run();

  ASSERT_EQ(ac_->reports().size(), 2u);
  EXPECT_GE(ac_->reports()[1].start, ac_->reports()[0].end);
  EXPECT_TRUE(cpu_->mtq().entry(0).done);
  EXPECT_TRUE(cpu_->mtq().entry(1).done);
}

TEST_F(MmaeFixture, MatlbReducesBlockingWalks) {
  util::Rng rng(29);
  const std::uint64_t dim = 128;
  const auto a_desc = alloc_matrix(dim, dim);
  const auto b_desc = alloc_matrix(dim, dim);
  const auto c_desc = alloc_matrix(dim, dim);
  write_matrix(a_desc, sa::HostMatrix::random(dim, dim, rng));
  write_matrix(b_desc, sa::HostMatrix::random(dim, dim, rng));
  write_matrix(c_desc, sa::HostMatrix(dim, dim));

  isa::GemmParams params;
  params.a_base = a_desc.base;
  params.b_base = b_desc.base;
  params.c_base = c_desc.base;
  params.m = params.n = params.k = dim;
  dispatch_gemm(params);
  const TaskReport with_matlb = ac_->reports().back();
  EXPECT_GT(with_matlb.matlb_hits, 0u);
  // The prediction covers nearly all page touches.
  EXPECT_LT(with_matlb.blocking_walks, with_matlb.matlb_hits / 4 + 4);
}

}  // namespace
}  // namespace maco::mmae

namespace maco::mmae {
namespace {

TEST(DmaPipelining, OutstandingRequestsOverlapLatency) {
  // With N outstanding requests, a latency-bound stream runs ~N times
  // faster than strict serialization.
  mem::PhysicalMemory memory;
  const sim::TimePs latency = 100'000;  // 100 ns per burst
  TestBackend backend(memory, /*bytes_per_second=*/1e18, latency);

  vm::PageTable table(0x4000'0000);
  for (std::uint64_t off = 0; off < 512 * 1024; off += vm::kPageSize) {
    table.map(0x10000000 + off, 0x10000000 + off);
  }
  vm::FixedLatencyOracle oracle(1000);
  cpu::Mmu mmu("dma.mmu", cpu::MmuConfig{}, oracle);
  TranslationContext ctx;
  ctx.asid = 1;
  ctx.table = &table;
  ctx.mmu = &mmu;

  const Region2D region{0x10000000, 64, 512, 4096};  // 64 page-new bursts
  std::vector<std::uint8_t> buffer(region.total_bytes());

  DmaConfig pipelined;
  pipelined.max_outstanding = 8;
  DmaConfig serial;
  serial.max_outstanding = 1;

  DmaEngine fast("dma.fast", 0, pipelined, backend);
  DmaEngine slow("dma.slow", 0, serial, backend);
  const auto fast_result = fast.read_region(region, buffer, ctx, 0);
  const auto slow_result = slow.read_region(region, buffer, ctx, 0);
  ASSERT_FALSE(fast_result.fault);
  ASSERT_FALSE(slow_result.fault);
  // Serial: ~64 x 100ns. Pipelined: ~64/8 x 100ns (plus walk stalls).
  EXPECT_GT(slow_result.end_time, 6 * fast_result.end_time);
}

}  // namespace
}  // namespace maco::mmae

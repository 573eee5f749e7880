// HPL-style LU factorization on MACO.
//
// The paper sources its GEMM workloads from the HPL package; the dominant
// kernel of HPL's right-looking LU is the trailing-submatrix GEMM update.
// This example runs the real thing at two scales:
//
// Part 1 (detailed system, functional): a blocked LU of a 128x128
// diagonally-dominant matrix (no pivoting needed). The CPU factors each
// 32-wide panel in software; the trailing update A22 -= L21 * U12 is
// dispatched to the MMAE — and because MPAIS GEMM operands are dense,
// the strided sub-matrix views are packed/unpacked with MA_MOVE, exactly
// the data-migration role Section III.B gives the DMA instructions (real
// HPL packs its panels the same way). The result is verified by
// reconstructing A = L * U.
//
// Part 2 (timing model): the full HPL sequence for paper-scale problems,
// trailing updates cooperatively mapped over 16 nodes, panel factorization
// and TRSM charged to the CPU cores, reporting sustained GFLOPS against
// the canonical 2/3*N^3 LU FLOP count — the way HPL reports.
#include <cstdio>

#include "core/maco_system.hpp"
#include "core/timing_model.hpp"
#include "util/rng.hpp"
#include "workloads/hpl.hpp"

namespace {

using namespace maco;

bool detailed_blocked_lu() {
  std::puts("== Part 1: blocked LU (128x128, nb=32) on the detailed system ==");

  core::SystemConfig config = core::SystemConfig::maco_default();
  config.node_count = 1;
  core::MacoSystem system(config);
  core::Process& process = system.create_process();
  system.schedule_process(0, process);

  const std::uint64_t n = 128, nb = 32;
  util::Rng rng(7);
  sa::HostMatrix a = sa::HostMatrix::random(n, n, rng);
  for (std::uint64_t i = 0; i < n; ++i) {
    a.at(i, i) += static_cast<double>(n);  // diagonal dominance: no pivoting
  }
  const sa::HostMatrix original = a;

  // Working copy in MACO memory plus dense scratch buffers for the packed
  // GEMM operands (-L21 | U12 | A22).
  const auto a_desc = system.alloc_matrix(process, n, n);
  const auto l21_desc = system.alloc_matrix(process, n, nb);
  const auto u12_desc = system.alloc_matrix(process, nb, n);
  const auto c22_desc = system.alloc_matrix(process, n, n);
  system.write_matrix(process, a_desc, a);

  cpu::CpuCore& cpu = system.node(0).cpu();
  std::uint64_t gemm_tasks = 0, move_tasks = 0;

  // Dispatches a strided copy; the STQ executes tasks in FIFO order, so a
  // pack -> GEMM -> unpack sequence needs no intermediate drains. The MAID
  // lands in x20+slot for release after the drain.
  const auto issue_move = [&](int slot, vm::VirtAddr src,
                              std::uint64_t src_stride, vm::VirtAddr dst,
                              std::uint64_t dst_stride, std::uint64_t rows,
                              std::uint64_t row_bytes) {
    isa::MoveParams move;
    move.src = src;
    move.dst = dst;
    move.rows = static_cast<std::uint32_t>(rows);
    move.row_bytes = static_cast<std::uint32_t>(row_bytes);
    move.src_stride = src_stride;
    move.dst_stride = dst_stride;
    cpu.regs().write_param_block(10, move.pack());
    cpu.execute_source("ma_move x" + std::to_string(20 + slot) + ", x10");
    ++move_tasks;
  };

  for (std::uint64_t j = 0; j + nb <= n; j += nb) {
    a = system.read_matrix(process, a_desc);
    const std::uint64_t trailing = n - j - nb;

    // -- CPU: unblocked factorization of the panel A[j:, j:j+nb]. --
    for (std::uint64_t kk = j; kk < j + nb; ++kk) {
      const double pivot = a.at(kk, kk);
      for (std::uint64_t r = kk + 1; r < n; ++r) {
        a.at(r, kk) /= pivot;
        for (std::uint64_t c = kk + 1; c < j + nb; ++c) {
          a.at(r, c) -= a.at(r, kk) * a.at(kk, c);
        }
      }
    }
    // -- CPU: triangular solve for U12 = L11^-1 * A12. --
    for (std::uint64_t kk = j; kk < j + nb; ++kk) {
      for (std::uint64_t r = j; r < kk; ++r) {
        for (std::uint64_t c = j + nb; c < n; ++c) {
          a.at(kk, c) -= a.at(kk, r) * a.at(r, c);
        }
      }
    }
    // Host holds -L21 (negated multipliers) so the accumulate-only GEMM
    // computes A22 + (-L21)*U12.
    system.write_matrix(process, a_desc, a);
    if (trailing == 0) break;
    sa::HostMatrix neg_l21(trailing, nb);
    for (std::uint64_t r = 0; r < trailing; ++r) {
      for (std::uint64_t c = 0; c < nb; ++c) {
        neg_l21.at(r, c) = -a.at(j + nb + r, j + c);
      }
    }
    system.write_matrix(
        process, vm::MatrixDesc{l21_desc.base, trailing, nb, 8, nb * 8},
        neg_l21);

    // -- MMAE: pack the strided views densely with MA_MOVE... --
    issue_move(0, a_desc.element_addr(j, j + nb), n * 8,       // U12
               u12_desc.base, trailing * 8, nb, trailing * 8);
    issue_move(1, a_desc.element_addr(j + nb, j + nb), n * 8,  // A22
               c22_desc.base, trailing * 8, trailing, trailing * 8);

    // -- ...run the trailing update on dense operands... --
    isa::GemmParams gemm;
    gemm.a_base = l21_desc.base;
    gemm.b_base = u12_desc.base;
    gemm.c_base = c22_desc.base;
    gemm.m = static_cast<std::uint32_t>(trailing);
    gemm.k = static_cast<std::uint32_t>(nb);
    gemm.n = static_cast<std::uint32_t>(trailing);
    cpu.regs().write_param_block(10, gemm.pack());
    cpu.execute_source("ma_cfg x22, x10");
    ++gemm_tasks;

    // -- ...and unpack the updated A22 back into the factor matrix. --
    issue_move(3, c22_desc.base, trailing * 8,
               a_desc.element_addr(j + nb, j + nb), n * 8, trailing,
               trailing * 8);

    system.run();  // drain the four FIFO-ordered tasks
    const auto& entry =
        cpu.mtq().entry(static_cast<cpu::Maid>(cpu.regs().read(22)));
    if (!entry.done || entry.exception_en) {
      std::puts("  trailing update failed!");
      return false;
    }
    // Release all four MTQ entries.
    cpu.execute_source(
        "ma_state x6, x20\n"
        "ma_state x6, x21\n"
        "ma_state x6, x22\n"
        "ma_state x6, x23");
  }

  // Reconstruct L*U and compare against the original A.
  a = system.read_matrix(process, a_desc);
  sa::HostMatrix reconstructed(n, n);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t jj = 0; jj < n; ++jj) {
      double sum = 0.0;
      const std::uint64_t limit = std::min(i, jj + 1);
      for (std::uint64_t kk = 0; kk < limit; ++kk) {
        sum += a.at(i, kk) * a.at(kk, jj);  // L (unit diagonal) below
      }
      if (i <= jj) sum += a.at(i, jj);  // U on/above the diagonal
      reconstructed.at(i, jj) = sum;
    }
  }
  double max_err = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t jj = 0; jj < n; ++jj) {
      max_err = std::max(max_err, std::abs(reconstructed.at(i, jj) -
                                           original.at(i, jj)));
    }
  }
  std::printf("  %llu GEMMs + %llu MA_MOVE packing tasks on the MMAE,\n"
              "  reconstruction |L*U - A|_max = %.2e -> %s\n\n",
              static_cast<unsigned long long>(gemm_tasks),
              static_cast<unsigned long long>(move_tasks), max_err,
              max_err < 1e-9 ? "FACTORIZATION CORRECT" : "MISMATCH");
  return max_err < 1e-9;
}

void paper_scale_hpl() {
  std::puts("== Part 2: HPL sweep, 16 nodes (timing model) ==");
  std::puts("      N     LU GFLOPs   time (ms)   HPL GFLOPS   vs FP64 peak");

  const core::SystemConfig config = core::SystemConfig::maco_default();
  const core::SystemTimingModel model(config);
  const cpu::CpuKernelModel& kernels = config.cpu.kernels;
  const std::uint64_t nb = 256;

  for (const std::uint64_t n : {2048ull, 4096ull, 8192ull, 16384ull}) {
    core::TimingOptions options;
    options.active_nodes = 16;
    options.cooperative = true;  // one update split over all nodes (Fig. 5)
    options.precision = sa::Precision::kFp64;

    double total_ps = 0.0;
    for (std::uint64_t j = nb; j <= n; j += nb) {
      const std::uint64_t trailing = n - j;
      // CPU side: panel factorization ((n-j+nb) x nb, depth nb) and the
      // nb x trailing TRSM, parallelized over the 16 cores.
      const sim::Cycles panel = kernels.gemm_cycles(
          n - j + nb, nb, nb, sa::Precision::kFp64);
      const sim::Cycles trsm =
          trailing
              ? kernels.gemm_cycles(nb, trailing, nb, sa::Precision::kFp64)
              : 0;
      total_ps +=
          static_cast<double>(kernels.cycles_to_ps((panel + trsm) / 16 + 1));
      // MMAE side: the trailing GEMM update.
      if (trailing) {
        options.shape = sa::TileShape{trailing, trailing, nb};
        total_ps += static_cast<double>(model.run(options).makespan_ps);
      }
    }

    const double seconds = total_ps * 1e-12;
    const double hpl_gflops = wl::lu_flops(n) / seconds / 1e9;
    const double peak = 16 * 80.0;  // 16 nodes x 80 GFLOPS FP64
    std::printf("  %6llu  %10.1f  %10.2f  %11.1f  %12.1f%%\n",
                static_cast<unsigned long long>(n), wl::lu_flops(n) / 1e9,
                seconds * 1e3, hpl_gflops, hpl_gflops / peak * 100.0);
  }
  std::puts("  (no look-ahead: panels and TRSM serialize with the updates,"
            " as in basic HPL)");
}

}  // namespace

int main() {
  const bool ok = detailed_blocked_lu();
  paper_scale_hpl();
  return ok ? 0 : 1;
}

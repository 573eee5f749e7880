// Accelerator Controller (AC).
//
// Receives MPAIS commands from the CPU core (implements cpu::AcceleratorPort),
// buffers them in the Slave Task Queue, and executes them in arrival order
// through two executors: tile-GEMM tasks (MA_CFG) run on the systolic array
// with two-level tiling (first-level <Tr,Tc> panels, second-level <ttr,ttc>
// tiles that fit the on-chip buffers), and the region ops MA_MOVE, MA_INIT
// and MA_STASH stream a strided region through the DMA engines. The
// controller drives the two DMA engines of the paper's ADE (Fig. 2): DMA0
// carries loads and MA_STASH, DMA1 stores and MA_INIT, so inbound and
// outbound streams overlap. Completions and exceptions are reported to the
// owning CPU's MTQ entry.
//
// Execution is timed and, when the memory backend carries values, also
// functional: tile data moves between the simulated physical memory and
// HostMatrix buffer images and the systolic array computes real values.
// The task timeline composes DMA, translation and compute with
// double-buffered overlap (compute of tile i overlaps the loads of tile
// i+1; translation is hidden only when the mATLB predicted it). Compute
// time comes from sa::compute_sa_timing on the tile shape, so the
// timeline never depends on a value.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/core.hpp"
#include "mmae/dma.hpp"
#include "mmae/stq.hpp"
#include "sa/host_matrix.hpp"
#include "sa/systolic_array.hpp"
#include "sim/engine.hpp"
#include "vm/matlb.hpp"

namespace maco::mmae {

struct MmaeConfig {
  double frequency_hz = 2.5e9;  // Table IV
  sa::SaConfig sa{};            // 4×4 array
  bool use_matlb = true;        // predictive address translation (Fig. 4)
  std::size_t matlb_entries = 256;
  DmaConfig dma{};
  unsigned stq_entries = 8;
};

// The MMAE's on-chip A, B and C buffers: 192 KiB split evenly, two banks
// each for double buffering, so an inner tile must fit one 32 KiB bank (a
// 64×64 FP64 tile fills it).
inline constexpr std::uint64_t kBufferBankBytes = 192 * 1024 / 3 / 2;

// The page table of an ASID, or null when no process has it.
using PageTableLookup = std::function<const vm::PageTable*(vm::Asid)>;

struct TaskReport {
  cpu::Maid maid = 0;
  isa::Mnemonic op = isa::Mnemonic::kMaCfg;
  sim::TimePs start = 0;
  sim::TimePs end = 0;
  std::uint64_t macs = 0;
  std::uint64_t dma_bytes = 0;
  sim::TimePs sa_busy_ps = 0;
  sim::TimePs translation_stall_ps = 0;
  std::uint64_t matlb_hits = 0;
  std::uint64_t blocking_walks = 0;
  cpu::ExceptionType exception = cpu::ExceptionType::kNone;

  bool operator==(const TaskReport&) const = default;

  // Counts one DMA leg: its bytes, translation stall, mATLB hits and
  // blocking walks.
  void add(const DmaResult& dma) noexcept {
    dma_bytes += dma.bytes;
    translation_stall_ps += dma.translation_stall_ps;
    matlb_hits += dma.matlb_hits;
    blocking_walks += dma.blocking_walks;
  }

  double duration_seconds() const noexcept {
    return sim::to_seconds(end - start);
  }
  // Computational efficiency vs the MMAE peak at `peak_macs_per_second`.
  double efficiency(double peak_macs_per_second) const noexcept {
    const double seconds = duration_seconds();
    if (seconds <= 0.0) return 0.0;
    return static_cast<double>(macs) / seconds / peak_macs_per_second;
  }
};

class AcceleratorController : public cpu::AcceleratorPort {
 public:
  // `page_tables` resolves a task's ASID (the OS's process registry), so
  // queued tasks survive process switches on the CPU.
  AcceleratorController(sim::SimEngine& engine, int node,
                        const MmaeConfig& config, MemoryBackend& backend,
                        cpu::CpuCore& cpu, PageTableLookup page_tables);
  AcceleratorController(const AcceleratorController&) = delete;
  AcceleratorController& operator=(const AcceleratorController&) = delete;

  // cpu::AcceleratorPort:
  bool submit(cpu::Maid maid, isa::Mnemonic op, const isa::ParamBlock& params,
              vm::Asid asid) override;

  const MmaeConfig& config() const noexcept { return config_; }
  vm::Matlb& matlb() noexcept { return matlb_; }

  double peak_macs_per_second() const noexcept {
    return config_.frequency_hz * config_.sa.rows * config_.sa.cols *
           sa::simd_ways(config_.sa.precision);
  }
  sim::TimePs cycles_to_ps(sim::Cycles cycles) const noexcept {
    return static_cast<sim::TimePs>(
        static_cast<double>(cycles) * 1e12 / config_.frequency_hz);
  }

  const std::vector<TaskReport>& reports() const noexcept { return reports_; }

 private:
  void try_start_next();
  TaskReport execute_gemm(const StqEntry& entry, sim::TimePs start);
  TaskReport execute_region(const StqEntry& entry, sim::TimePs start);
  TranslationContext context_for(const StqEntry& entry);
  // Tile `t` of the FP64 matrix `m`, streamed by DMA0 into `out` (resized
  // to t.rows × t.cols: its dense rows are the stream's layout).
  DmaResult load_tile(const vm::MatrixDesc& m, const vm::TileDesc& t,
                      sa::HostMatrix& out, const TranslationContext& ctx,
                      sim::TimePs start);
  // `in` streamed by DMA1 into tile `t` of `m`.
  DmaResult store_tile(const vm::MatrixDesc& m, const vm::TileDesc& t,
                       const sa::HostMatrix& in, const TranslationContext& ctx,
                       sim::TimePs start);

  sim::SimEngine& engine_;
  MmaeConfig config_;
  SlaveTaskQueue stq_;
  MemoryBackend& backend_;
  DmaEngine dma0_;  // loads and MA_STASH
  DmaEngine dma1_;  // stores and MA_INIT
  std::vector<std::uint8_t> staging_;  // MA_MOVE's bytes between its legs
  vm::Matlb matlb_;
  cpu::CpuCore& cpu_;
  PageTableLookup page_tables_;
  bool task_running_ = false;
  sim::TimePs busy_until_ = 0;
  std::vector<TaskReport> reports_;
};

}  // namespace maco::mmae

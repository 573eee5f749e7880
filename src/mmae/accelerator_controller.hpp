// Accelerator Controller (AC).
//
// Receives MPAIS commands from the CPU core (implements cpu::AcceleratorPort),
// buffers them in the Slave Task Queue, and executes them in arrival order:
// tile-GEMM tasks through the systolic array with two-level tiling
// (first-level <Tr,Tc> panels, second-level <ttr,ttc> tiles that fit the
// on-chip buffers), data-migration tasks through the ADE's DMA engines.
// Completions and exceptions are reported to the owning CPU's MTQ entry.
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
#include "mmae/data_engine.hpp"
#include "mmae/stq.hpp"
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
  // Called when a task finishes (after MTQ update), e.g. to wake schedulers.
  using CompletionFn =
      std::function<void(cpu::Maid, cpu::ExceptionType, sim::TimePs)>;

  AcceleratorController(sim::SimEngine& engine, int node,
                        const MmaeConfig& config, MemoryBackend& backend,
                        cpu::CpuCore& cpu);
  AcceleratorController(const AcceleratorController&) = delete;
  AcceleratorController& operator=(const AcceleratorController&) = delete;

  // cpu::AcceleratorPort:
  bool submit(cpu::Maid maid, isa::Mnemonic op, const isa::ParamBlock& params,
              vm::Asid asid) override;

  void set_completion_callback(CompletionFn fn) {
    on_complete_ = std::move(fn);
  }
  // Page table for an ASID (multi-process: the OS registers live tables).
  void set_page_table_lookup(
      std::function<const vm::PageTable*(vm::Asid)> lookup) {
    table_lookup_ = std::move(lookup);
  }

  const MmaeConfig& config() const noexcept { return config_; }
  SlaveTaskQueue& stq() noexcept { return stq_; }
  AcceleratorDataEngine& ade() noexcept { return ade_; }
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
  sim::TimePs busy_until() const noexcept { return busy_until_; }

 private:
  void try_start_next();
  TaskReport execute_task(const StqEntry& entry, sim::TimePs start);
  TaskReport execute_gemm(const StqEntry& entry, const isa::GemmParams& p,
                          sim::TimePs start);
  TaskReport execute_move(const StqEntry& entry, const isa::MoveParams& p,
                          sim::TimePs start);
  TaskReport execute_init(const StqEntry& entry, const isa::InitParams& p,
                          sim::TimePs start);
  TaskReport execute_stash(const StqEntry& entry, const isa::StashParams& p,
                           sim::TimePs start);
  TranslationContext context_for(const StqEntry& entry);

  sim::SimEngine& engine_;
  MmaeConfig config_;
  int node_;
  SlaveTaskQueue stq_;
  MemoryBackend& backend_;
  AcceleratorDataEngine ade_;
  vm::Matlb matlb_;
  cpu::CpuCore& cpu_;
  CompletionFn on_complete_;
  std::function<const vm::PageTable*(vm::Asid)> table_lookup_;
  bool task_running_ = false;
  sim::TimePs busy_until_ = 0;
  std::vector<TaskReport> reports_;
};

}  // namespace maco::mmae

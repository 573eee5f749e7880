// CPU core model (Table I).
//
// The core is modeled at the level this study needs: it architecturally
// executes MPAIS instructions (allocating MTQ entries, marshalling the six
// parameter registers to the MMAE, querying/releasing task state), owns the
// MMU whose shared sTLB the MMAE translates through, and accounts cycles for
// the instructions it issues. General scalar/vector computation is
// represented by the kernel cost models in scalar_kernels.hpp rather than
// per-instruction simulation — Table I's resources (issue width, ports)
// parameterize those models. No MMAE path touches the core's private L1/L2
// caches or L1 DTLB, so they are not modeled; their Table I sizes enter
// only the area model (model::CpuParams).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/mmu.hpp"
#include "cpu/mtq.hpp"
#include "cpu/scalar_kernels.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "isa/params.hpp"
#include "isa/regfile.hpp"
#include "sim/time.hpp"

namespace maco::cpu {

struct CpuConfig {
  unsigned issue_width = 4;      // Table I: four-issue
  MmuConfig mmu;
  unsigned mtq_entries = 8;
  CpuKernelModel kernels;
};

// Sentinel written to Rd when MA_CFG finds no free MTQ entry.
inline constexpr std::uint64_t kMaidAllocFailed = ~0ull;

// The CPU's view of its associated MMAE: submit a command, get completion
// through the MTQ (the MMAE holds a reference to it).
class AcceleratorPort {
 public:
  virtual ~AcceleratorPort() = default;
  // Returns false if the slave queue cannot accept the command.
  virtual bool submit(Maid maid, isa::Mnemonic op,
                      const isa::ParamBlock& params, vm::Asid asid) = 0;
};

class CpuCore {
 public:
  CpuCore(int node_id, const CpuConfig& config,
          vm::MemoryLatencyOracle& walk_memory);
  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;

  int node_id() const noexcept { return node_id_; }
  const CpuConfig& config() const noexcept { return config_; }

  void attach_accelerator(AcceleratorPort* port) noexcept {
    accelerator_ = port;
  }

  // Current process (set by the simulated OS on a context switch): the
  // ASID the core tags its MTQ entries and MMAE tasks with.
  void set_context(vm::Asid asid) noexcept { asid_ = asid; }

  isa::RegFile& regs() noexcept { return regs_; }
  MasterTaskQueue& mtq() noexcept { return mtq_; }
  Mmu& mmu() noexcept { return mmu_; }
  const CpuKernelModel& kernels() const noexcept { return config_.kernels; }

  struct ExecStats {
    std::uint64_t instructions = 0;
    std::uint64_t tasks_dispatched = 0;
    std::uint64_t mtq_alloc_failures = 0;
    std::uint64_t submit_rejections = 0;
    sim::Cycles cycles = 0;
  };

  // Executes one MPAIS instruction; returns issue cycles consumed.
  sim::Cycles step(const isa::Instruction& instruction, ExecStats& stats);

  // Executes a whole program front to back.
  ExecStats execute(const std::vector<isa::Instruction>& program);

  // Convenience: assemble and execute MPAIS source (asserts clean assembly).
  ExecStats execute_source(std::string_view source);

 private:
  int node_id_;
  std::string name_;  // "node<N>.cpu", for diagnostics
  CpuConfig config_;
  isa::RegFile regs_;
  MasterTaskQueue mtq_;
  Mmu mmu_;
  AcceleratorPort* accelerator_ = nullptr;
  vm::Asid asid_ = 0;
};

}  // namespace maco::cpu

// One MACO compute node: a CPU core plus its associated MMAE, wired
// together (accelerator port, shared sTLB, completion path into the MTQ).
#pragma once

#include <memory>

#include "cpu/core.hpp"
#include "mmae/accelerator_controller.hpp"

namespace maco::core {

class ComputeNode {
 public:
  ComputeNode(sim::SimEngine& engine, int node_id,
              const cpu::CpuConfig& cpu_config,
              const mmae::MmaeConfig& mmae_config,
              mmae::MemoryBackend& backend,
              vm::MemoryLatencyOracle& walk_memory,
              mmae::PageTableLookup page_tables);

  int id() const noexcept { return id_; }
  cpu::CpuCore& cpu() noexcept { return *cpu_; }
  mmae::AcceleratorController& mmae() noexcept { return *mmae_; }

 private:
  int id_;
  std::unique_ptr<cpu::CpuCore> cpu_;
  std::unique_ptr<mmae::AcceleratorController> mmae_;
};

}  // namespace maco::core

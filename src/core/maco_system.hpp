// MacoSystem: the whole chip, detailed mode.
//
// Compute nodes, distributed L3/CCM slices, DRAM channels and the physical
// backing store wired together. The memory backend charges NoC time through
// the `icnt` interconnect model and per-node injection-port serialization
// plus the CCM/DRAM costs for every cache-line transfer. Every run follows
// the full MPAIS path (program -> MTQ/STQ -> DMA -> systolic array ->
// memory). Operand values travel along it only when
// SystemConfig::carry_values is set: direct MacoSystem users (tests,
// examples) keep that default and read results back, while every detailed
// run (core::run_detailed_jobs in core/detailed_runner.hpp) switches it
// off, because timing never reads a value. Paper-scale sweeps use
// core::SystemTimingModel instead.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/compute_node.hpp"
#include "core/config.hpp"
#include "mem/directory.hpp"
#include "mem/dram.hpp"
#include "mem/physical_memory.hpp"
#include "noc/icnt.hpp"
#include "noc/link_load_model.hpp"
#include "sa/host_matrix.hpp"
#include "sim/engine.hpp"
#include "vm/page_table.hpp"

namespace maco::core {

// A simulated process: ASID + address space.
struct Process {
  vm::Asid asid = 0;
  std::unique_ptr<vm::AddressSpace> space;
};

class MacoSystem;

// Timing+functional memory path used by the MMAEs' DMA engines.
class SystemMemoryBackend final : public mmae::MemoryBackend {
 public:
  explicit SystemMemoryBackend(MacoSystem& system) : system_(system) {}

  bool carries_values() const override;
  sim::TimePs read(int node, vm::PhysAddr pa, void* out, std::uint32_t bytes,
                   sim::TimePs start) override;
  sim::TimePs write(int node, vm::PhysAddr pa, const void* data,
                    std::uint32_t bytes, sim::TimePs start) override;
  sim::TimePs stash(int node, vm::PhysAddr pa, std::uint32_t bytes, bool lock,
                    sim::TimePs start) override;

 private:
  sim::TimePs transfer(int node, vm::PhysAddr pa, std::uint32_t bytes,
                       mem::CcmReqType type, bool lock, sim::TimePs start);
  MacoSystem& system_;
};

// Page-table walks issued by a node's MMU: PTE reads go through the L3/CCM
// path like any other line, so page-table locality emerges naturally.
class WalkMemoryOracle final : public vm::MemoryLatencyOracle {
 public:
  WalkMemoryOracle(MacoSystem& system, int node)
      : system_(system), node_(node) {}
  sim::TimePs read_latency(vm::PhysAddr addr, std::uint32_t bytes) override;

 private:
  MacoSystem& system_;
  int node_;
};

class MacoSystem {
 public:
  explicit MacoSystem(const SystemConfig& config = SystemConfig::maco_default());
  ~MacoSystem();

  const SystemConfig& config() const noexcept { return config_; }
  sim::SimEngine& engine() noexcept { return engine_; }
  mem::PhysicalMemory& memory() noexcept { return memory_; }

  unsigned node_count() const noexcept {
    return static_cast<unsigned>(nodes_.size());
  }
  ComputeNode& node(unsigned index);

  // ---- processes ----
  Process& create_process();
  Process& process(vm::Asid asid);
  // Installs the process context on a node (simulated OS context switch).
  void schedule_process(unsigned node_index, Process& process);

  // ---- matrix helpers (host-side, functional) ----
  // write_matrix and read_matrix throw std::logic_error on a machine built
  // with carry_values = false, which holds no values to move.
  vm::MatrixDesc alloc_matrix(Process& process, std::uint64_t rows,
                              std::uint64_t cols);
  // Lazily-backed variant (reserved VA, no frames): the MMAE faults on
  // first touch and the OS layer (os::Scheduler) repairs via demand paging.
  vm::MatrixDesc alloc_matrix_lazy(Process& process, std::uint64_t rows,
                                   std::uint64_t cols);
  void write_matrix(Process& process, const vm::MatrixDesc& desc,
                    const sa::HostMatrix& values);
  sa::HostMatrix read_matrix(Process& process, const vm::MatrixDesc& desc);

  // ---- memory-system internals (used by the backend/oracle) ----
  mem::DirectoryCcm& ccm_for(vm::PhysAddr pa);
  unsigned ccm_home_node(vm::PhysAddr pa) const noexcept;
  // Enumeration by index (used by obs::collect's counter walk).
  unsigned dram_channel_count() const noexcept {
    return static_cast<unsigned>(drams_.size());
  }
  const mem::DramModel& dram_channel(unsigned index) const {
    return *drams_.at(index);
  }
  unsigned ccm_slice_count() const noexcept {
    return static_cast<unsigned>(ccms_.size());
  }
  const mem::DirectoryCcm& ccm_slice(unsigned index) const {
    return *ccms_.at(index);
  }
  // The interconnect backend the `icnt` knob selected (charges NoC time
  // per line transfer; analytic reproduces the historic hop formula).
  noc::IcntModel& icnt() noexcept { return *icnt_; }
  // Per-node injection port: serializes a node's outstanding transfers.
  sim::TimePs& node_port_free(int node) { return node_port_free_.at(node); }
  double node_link_bandwidth() const noexcept {
    return config_.node_link_bandwidth();
  }

  void run() { engine_.run(); }

 private:
  void require_values(const char* caller) const;

  SystemConfig config_;
  sim::SimEngine engine_;
  mem::PhysicalMemory memory_;
  std::unique_ptr<SystemMemoryBackend> backend_;
  std::vector<std::unique_ptr<WalkMemoryOracle>> walk_oracles_;
  std::vector<std::unique_ptr<mem::DramModel>> drams_;
  std::vector<std::unique_ptr<mem::DirectoryCcm>> ccms_;
  std::unique_ptr<noc::IcntModel> icnt_;
  std::vector<std::unique_ptr<ComputeNode>> nodes_;
  std::vector<sim::TimePs> node_port_free_;
  std::unordered_map<vm::Asid, std::unique_ptr<Process>> processes_;
  vm::Asid next_asid_ = 1;
};

}  // namespace maco::core

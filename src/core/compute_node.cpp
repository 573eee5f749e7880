#include "core/compute_node.hpp"

namespace maco::core {

ComputeNode::ComputeNode(sim::SimEngine& engine, int node_id,
                         const cpu::CpuConfig& cpu_config,
                         const mmae::MmaeConfig& mmae_config,
                         mmae::MemoryBackend& backend,
                         vm::MemoryLatencyOracle& walk_memory,
                         mmae::PageTableLookup page_tables)
    : id_(node_id) {
  cpu_ = std::make_unique<cpu::CpuCore>(node_id, cpu_config, walk_memory);
  mmae_ = std::make_unique<mmae::AcceleratorController>(
      engine, node_id, mmae_config, backend, *cpu_, std::move(page_tables));
  cpu_->attach_accelerator(mmae_.get());
}

}  // namespace maco::core

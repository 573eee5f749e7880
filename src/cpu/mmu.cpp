#include "cpu/mmu.hpp"

namespace maco::cpu {

Mmu::Mmu(const std::string& name, const MmuConfig& config,
         vm::MemoryLatencyOracle& walk_memory)
    : config_(config),
      shared_tlb_(name + ".stlb", config.l2_tlb_entries),
      walker_(walk_memory) {}

TranslationResult Mmu::translate_for_accelerator(vm::Asid asid,
                                                 const vm::PageTable& table,
                                                 vm::VirtAddr va) {
  const std::uint64_t vpn = vm::vpn_of(va);
  if (const auto ppn = shared_tlb_.lookup(asid, vpn)) {
    return TranslationResult{true, (*ppn << vm::kPageBits) |
                                       vm::page_offset(va),
                             config_.l2_tlb_latency_ps,
                             TranslationSource::kSharedTlb};
  }
  const vm::WalkOutcome outcome = walker_.walk(asid, table, va);
  TranslationResult result;
  result.latency = config_.l2_tlb_latency_ps + outcome.latency;
  if (!outcome.valid) {
    result.source = TranslationSource::kFault;
    return result;
  }
  result.valid = true;
  result.phys = outcome.phys;
  result.source = TranslationSource::kPageWalk;
  shared_tlb_.insert(asid, vpn, vm::ppn_of(outcome.phys));
  return result;
}

}  // namespace maco::cpu

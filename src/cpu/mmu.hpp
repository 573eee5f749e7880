// CPU memory-management unit: the shared 1024-entry L2 TLB (sTLB) and a
// hardware page-table walker.
//
// The MMAE has no MMU of its own (paper Section II: LCA defect (2)); it
// reaches translation through the CPU's sTLB via a customized interface —
// `translate_for_accelerator` models that port. The core's private L1
// DTLB sits on its load/store pipeline, which no MMAE path uses, so it is
// not modeled.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "vm/page_table.hpp"
#include "vm/tlb.hpp"
#include "vm/walker.hpp"

namespace maco::cpu {

struct MmuConfig {
  std::size_t l2_tlb_entries = 1024;  // Table I: L2 TLB, fully assoc.
  sim::TimePs l2_tlb_latency_ps = 1365;   // ~3 CPU cycles @ 2.2 GHz
};

enum class TranslationSource { kSharedTlb, kPageWalk, kFault };

struct TranslationResult {
  bool valid = false;
  vm::PhysAddr phys = 0;
  sim::TimePs latency = 0;
  TranslationSource source = TranslationSource::kFault;
};

class Mmu {
 public:
  Mmu(const std::string& name, const MmuConfig& config,
      vm::MemoryLatencyOracle& walk_memory);

  // Accelerator path: sTLB -> walk (a walk fills the sTLB).
  TranslationResult translate_for_accelerator(vm::Asid asid,
                                              const vm::PageTable& table,
                                              vm::VirtAddr va);

  vm::Tlb& shared_tlb() noexcept { return shared_tlb_; }
  vm::PageTableWalker& walker() noexcept { return walker_; }

 private:
  MmuConfig config_;
  vm::Tlb shared_tlb_;
  vm::PageTableWalker walker_;
};

}  // namespace maco::cpu

#include "vm/walker.hpp"

namespace maco::vm {

PageTableWalker::PageTableWalker(MemoryLatencyOracle& memory,
                                 std::size_t walk_cache_entries)
    : memory_(memory), cache_(walk_cache_entries) {}

bool PageTableWalker::cached(Asid asid, VirtAddr va) const noexcept {
  const std::uint64_t region = va >> kRegionShift;
  for (const WalkCacheEntry& entry : cache_) {
    if (entry.region == region && entry.asid == asid) return true;
  }
  return false;
}

WalkOutcome PageTableWalker::walk(Asid asid, const PageTable& table,
                                  VirtAddr va) {
  ++walks_;
  const PageTable::WalkTrace trace = table.walk(va);

  // A cached region's interior levels (L0..L2) cost no memory access.
  const bool hit = cached(asid, va);
  if (hit) ++walk_cache_hits_;

  WalkOutcome outcome;
  for (int level = hit ? PageTable::kLevels - 1 : 0; level < trace.levels;
       ++level) {
    outcome.latency +=
        memory_.read_latency(trace.pte_addr[level], PageTable::kEntryBytes);
    ++outcome.memory_accesses;
    ++pte_reads_;
  }
  outcome.valid = trace.valid;
  outcome.phys = trace.phys;
  if (!trace.valid) {
    ++faults_;
    return outcome;
  }
  if (!cache_.empty()) {
    cache_[next_fill_] = WalkCacheEntry{asid, va >> kRegionShift};
    if (++next_fill_ == cache_.size()) next_fill_ = 0;
  }
  return outcome;
}

}  // namespace maco::vm

#include "vm/walker.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace maco::vm {

PageTableWalker::PageTableWalker(MemoryLatencyOracle& memory,
                                 std::size_t walk_cache_entries)
    : memory_(memory), cache_(walk_cache_entries) {}

std::uint64_t PageTableWalker::prefix_for(VirtAddr va, int level) noexcept {
  // Bits of the VA above the range translated *below* `level`; two walks
  // with equal prefixes at `level` traverse the same interior node chain.
  const unsigned shift =
      kPageBits + PageTable::kIndexBits * (PageTable::kLevels - 1 - level);
  return va >> shift;
}

int PageTableWalker::cached_depth(Asid asid, VirtAddr va) const noexcept {
  int best = -1;
  for (const auto& entry : cache_) {
    if (!entry.valid || entry.asid != asid) continue;
    if (entry.prefix == prefix_for(va, entry.level) && entry.level > best) {
      best = entry.level;
    }
  }
  return best;
}

void PageTableWalker::fill_cache(Asid asid, VirtAddr va, int level) noexcept {
  if (cache_.empty()) return;
  auto victim = std::min_element(
      cache_.begin(), cache_.end(),
      [](const WalkCacheEntry& a, const WalkCacheEntry& b) {
        if (a.valid != b.valid) return !a.valid;  // prefer invalid slots
        return a.tick < b.tick;
      });
  *victim = WalkCacheEntry{true, asid, level, prefix_for(va, level),
                           ++lru_tick_};
}

WalkOutcome PageTableWalker::walk(Asid asid, const PageTable& table,
                                  VirtAddr va) {
  ++walks_;
  const PageTable::WalkTrace trace = table.walk(va);

  // Interior levels covered by the walk cache cost no memory access.
  const int depth = cache_.empty() ? -1 : cached_depth(asid, va);
  if (depth >= 0) ++walk_cache_hits_;

  WalkOutcome outcome;
  for (int level = depth + 1; level < trace.levels; ++level) {
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
  // Cache the deepest interior node reached (L2 covers a 2 MiB region).
  fill_cache(asid, va, PageTable::kLevels - 2);
  return outcome;
}

}  // namespace maco::vm

// Hardware page-table walker with a small upper-level walk cache.
//
// Walk latency is charged through a MemoryLatencyOracle so the walker can be
// wired either to fixed latencies (fast system model) or to the simulated
// cache hierarchy (detailed model).
//
// Every successful walk caches the deepest interior node it reached, the
// L2 node that covers the walk's 2 MiB region, so the walk cache is a FIFO
// of the last N successful walks' (ASID, 2 MiB region) pairs, duplicates
// included. A walk whose region is cached reads only the leaf PTE.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "vm/page_table.hpp"
#include "vm/types.hpp"

namespace maco::vm {

// Where a physical read would be serviced and how long it takes.
class MemoryLatencyOracle {
 public:
  virtual ~MemoryLatencyOracle() = default;
  virtual sim::TimePs read_latency(PhysAddr addr, std::uint32_t bytes) = 0;
};

class FixedLatencyOracle final : public MemoryLatencyOracle {
 public:
  explicit FixedLatencyOracle(sim::TimePs latency) : latency_(latency) {}
  sim::TimePs read_latency(PhysAddr, std::uint32_t) override {
    return latency_;
  }

 private:
  sim::TimePs latency_;
};

struct WalkOutcome {
  bool valid = false;       // false => page fault
  PhysAddr phys = 0;
  sim::TimePs latency = 0;  // total walk latency
  int memory_accesses = 0;  // PTE reads actually performed
};

class PageTableWalker {
 public:
  // `walk_cache_entries` caches upper-level (L0..L2) table nodes keyed by VA
  // prefix, as real MMUs do; 0 disables the cache.
  PageTableWalker(MemoryLatencyOracle& memory,
                  std::size_t walk_cache_entries = 16);

  WalkOutcome walk(Asid asid, const PageTable& table, VirtAddr va);

  std::uint64_t walks() const noexcept { return walks_; }
  std::uint64_t faults() const noexcept { return faults_; }
  std::uint64_t pte_reads() const noexcept { return pte_reads_; }
  std::uint64_t walk_cache_hits() const noexcept { return walk_cache_hits_; }
  void reset_stats() noexcept {
    walks_ = faults_ = pte_reads_ = walk_cache_hits_ = 0;
  }

 private:
  // A 2 MiB region: the VA bits above those an L2 node's entries
  // translate. No VA reaches kNoRegion, which marks an empty slot.
  static constexpr unsigned kRegionShift = kPageBits + PageTable::kIndexBits;
  static constexpr std::uint64_t kNoRegion = ~0ull;
  struct WalkCacheEntry {
    Asid asid = 0;
    std::uint64_t region = kNoRegion;
  };

  bool cached(Asid asid, VirtAddr va) const noexcept;

  MemoryLatencyOracle& memory_;
  std::vector<WalkCacheEntry> cache_;
  std::size_t next_fill_ = 0;  // ring cursor: the oldest entry once full

  std::uint64_t walks_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t pte_reads_ = 0;
  std::uint64_t walk_cache_hits_ = 0;
};

}  // namespace maco::vm

// Hardware page-table walker with a small upper-level walk cache.
//
// Walk latency is charged through a MemoryLatencyOracle so the walker can be
// wired either to fixed latencies (fast system model) or to the simulated
// cache hierarchy (detailed model).
#pragma once

#include <cstdint>

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
  struct WalkCacheEntry {
    bool valid = false;
    Asid asid = 0;
    int level = 0;          // deepest interior level this entry covers (0..2)
    std::uint64_t prefix = 0;  // VA bits above the covered level
    std::uint64_t tick = 0;    // LRU
  };

  // Returns the deepest interior level already covered by the cache
  // (-1 if none), so the walk can start below it.
  int cached_depth(Asid asid, VirtAddr va) const noexcept;
  void fill_cache(Asid asid, VirtAddr va, int level) noexcept;
  static std::uint64_t prefix_for(VirtAddr va, int level) noexcept;

  MemoryLatencyOracle& memory_;
  std::vector<WalkCacheEntry> cache_;
  std::uint64_t lru_tick_ = 0;

  std::uint64_t walks_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t pte_reads_ = 0;
  std::uint64_t walk_cache_hits_ = 0;
};

}  // namespace maco::vm

// Four-level radix page table (ARMv8-style 48-bit VA, 4 KiB granule) plus
// per-process address spaces.
//
// Table nodes are assigned simulated physical addresses so the page-table
// walker can charge realistic memory latencies for each level it touches.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "vm/types.hpp"

namespace maco::vm {

class PageTable {
 public:
  static constexpr int kLevels = 4;          // L0 (root) .. L3 (leaf)
  static constexpr unsigned kIndexBits = 9;  // 512 entries per node
  static constexpr unsigned kEntryBytes = 8;

  // `table_region_base` is the physical address where table nodes are
  // placed; successive nodes occupy successive frames.
  explicit PageTable(PhysAddr table_region_base);

  // Establish va -> pa for one page (both page-aligned).
  void map(VirtAddr va, PhysAddr pa);
  bool is_mapped(VirtAddr va) const;
  std::optional<PhysAddr> translate(VirtAddr va) const;

  // Walk trace: the PTE physical address read at each level, for timing.
  struct WalkTrace {
    std::array<PhysAddr, kLevels> pte_addr{};
    PhysAddr phys = 0;   // translated address (page base + offset)
    int levels = 0;      // levels actually read before hit/fault
    bool valid = false;  // false => page fault
  };
  WalkTrace walk(VirtAddr va) const;

  PhysAddr root_base() const noexcept { return nodes_[0].base; }
  std::uint64_t mapped_page_count() const noexcept { return mapped_pages_; }
  std::uint64_t node_count() const noexcept { return nodes_.size(); }

  static unsigned level_index(VirtAddr va, int level) noexcept {
    const unsigned shift = kPageBits + kIndexBits * (kLevels - 1 - level);
    return static_cast<unsigned>((va >> shift) & ((1u << kIndexBits) - 1));
  }

 private:
  struct Node {
    explicit Node(PhysAddr node_base) : base(node_base) {
      next.fill(-1);
      ppn.fill(0);
      present.fill(false);
    }
    PhysAddr base;
    std::array<std::int32_t, 1u << kIndexBits> next;  // interior: child node id
    std::array<std::uint64_t, 1u << kIndexBits> ppn;  // leaf: frame number
    std::array<bool, 1u << kIndexBits> present;       // leaf validity
  };

  std::int32_t alloc_node();

  std::vector<Node> nodes_;
  PhysAddr next_node_base_;
  std::uint64_t mapped_pages_ = 0;
};

// A process address space: an ASID, a page table, and bump virtual and
// physical allocators; an allocation maps every page it spans.
class AddressSpace {
 public:
  AddressSpace(Asid asid, PhysAddr page_table_base, PhysAddr frame_base,
               VirtAddr virt_base = 0x10000000ull);

  Asid asid() const noexcept { return asid_; }
  PageTable& page_table() noexcept { return table_; }
  const PageTable& page_table() const noexcept { return table_; }

  // Allocates `bytes` of page-backed virtual memory; returns its base.
  // Pages stay mapped for the address space's life.
  VirtAddr alloc(std::uint64_t bytes);

 private:
  Asid asid_;
  PageTable table_;
  PhysAddr next_frame_;
  VirtAddr virt_cursor_;
};

}  // namespace maco::vm

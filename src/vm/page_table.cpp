#include "vm/page_table.hpp"

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace maco::vm {

PageTable::PageTable(PhysAddr table_region_base)
    : next_node_base_(table_region_base) {
  nodes_.emplace_back(next_node_base_);
  next_node_base_ += kPageSize;
}

std::int32_t PageTable::alloc_node() {
  nodes_.emplace_back(next_node_base_);
  next_node_base_ += kPageSize;
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

void PageTable::map(VirtAddr va, PhysAddr pa) {
  MACO_ASSERT_MSG(page_offset(va) == 0 && page_offset(pa) == 0,
                  "map requires page-aligned addresses");
  std::int32_t node = 0;
  for (int level = 0; level < kLevels - 1; ++level) {
    const unsigned idx = level_index(va, level);
    if (nodes_[node].next[idx] < 0) {
      const std::int32_t child = alloc_node();
      nodes_[node].next[idx] = child;  // alloc_node may reallocate nodes_
    }
    node = nodes_[node].next[idx];
  }
  const unsigned leaf = level_index(va, kLevels - 1);
  if (!nodes_[node].present[leaf]) ++mapped_pages_;
  nodes_[node].present[leaf] = true;
  nodes_[node].ppn[leaf] = ppn_of(pa);
}

bool PageTable::is_mapped(VirtAddr va) const {
  return translate(va).has_value();
}

std::optional<PhysAddr> PageTable::translate(VirtAddr va) const {
  std::int32_t node = 0;
  for (int level = 0; level < kLevels - 1; ++level) {
    const std::int32_t next = nodes_[node].next[level_index(va, level)];
    if (next < 0) return std::nullopt;
    node = next;
  }
  const unsigned leaf = level_index(va, kLevels - 1);
  if (!nodes_[node].present[leaf]) return std::nullopt;
  return (nodes_[node].ppn[leaf] << kPageBits) | page_offset(va);
}

PageTable::WalkTrace PageTable::walk(VirtAddr va) const {
  WalkTrace trace;
  std::int32_t node = 0;
  for (int level = 0; level < kLevels; ++level) {
    const unsigned idx = level_index(va, level);
    trace.pte_addr[level] = nodes_[node].base + idx * kEntryBytes;
    trace.levels = level + 1;
    if (level < kLevels - 1) {
      const std::int32_t next = nodes_[node].next[idx];
      if (next < 0) return trace;  // fault at this level
      node = next;
    } else {
      if (!nodes_[node].present[idx]) return trace;  // leaf fault
      trace.valid = true;
      trace.phys = (nodes_[node].ppn[idx] << kPageBits) | page_offset(va);
    }
  }
  return trace;
}

AddressSpace::AddressSpace(Asid asid, PhysAddr page_table_base,
                           PhysAddr frame_base, VirtAddr virt_base)
    : asid_(asid), table_(page_table_base), next_frame_(frame_base),
      virt_cursor_(util::align_up(virt_base, kPageSize)) {}

VirtAddr AddressSpace::alloc(std::uint64_t bytes) {
  MACO_ASSERT_MSG(bytes > 0, "zero-byte allocation");
  const VirtAddr base = virt_cursor_;
  const std::uint64_t span = util::align_up(bytes, kPageSize);
  for (std::uint64_t offset = 0; offset < span; offset += kPageSize) {
    table_.map(base + offset, next_frame_);
    next_frame_ += kPageSize;
  }
  virt_cursor_ += span;
  return base;
}

}  // namespace maco::vm

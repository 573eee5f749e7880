// vm::for_each_page_entry collected, for tests that inspect the page
// enumeration as a whole: the first address touched in each page, in
// stream order, and the number of distinct pages those cover.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "vm/matlb.hpp"

namespace maco::vm {

inline std::vector<VirtAddr> predict_page_entries(
    const MatrixDesc& matrix, const TileDesc& tile,
    std::uint64_t page_bytes = kPageSize) {
  std::vector<VirtAddr> entries;
  for_each_page_entry(matrix, tile, page_bytes,
                      [&](VirtAddr addr) { entries.push_back(addr); });
  return entries;
}

inline std::uint64_t distinct_pages(const MatrixDesc& matrix,
                                    const TileDesc& tile) {
  std::unordered_set<std::uint64_t> pages;
  for_each_page_entry(matrix, tile, kPageSize,
                      [&](VirtAddr addr) { pages.insert(vpn_of(addr)); });
  return pages.size();
}

}  // namespace maco::vm

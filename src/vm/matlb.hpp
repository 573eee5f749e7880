// mATLB: the paper's predictive address-translation unit (Section IV.A).
//
// Given the matrix geometry and the upcoming tile, the mATLB computes the
// virtual address of the *first element in every page* the tile's DMA stream
// will touch (the red circles of Fig. 4), issues page-table walks for them
// through the CPU core's MMU ahead of time, and buffers the returned
// translations. DMA engines then consume translations in stream order; an
// entry is retired once it no longer matches the current virtual address.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "vm/layout.hpp"
#include "vm/page_table.hpp"
#include "vm/tlb.hpp"
#include "vm/walker.hpp"

namespace maco::vm {

// Calls visit(addr) for the first address the tile's DMA stream touches in
// each page of `page_bytes`, in stream order (row-major over the tile).
// Consecutive duplicates are collapsed; a page revisited by a later row is
// visited again, matching the stream-ordered retirement policy of the
// hardware buffer.
template <typename Visit>
void for_each_page_entry(const MatrixDesc& matrix, const TileDesc& tile,
                         std::uint64_t page_bytes, Visit&& visit) {
  MACO_ASSERT(page_bytes > 0);
  validate_tile(matrix, tile);
  std::uint64_t last_vpn = ~0ull;
  for (std::uint64_t r = 0; r < tile.rows; ++r) {
    const VirtAddr row_start = matrix.element_addr(tile.row0 + r, tile.col0);
    const VirtAddr row_end = row_start + tile.cols * matrix.elem_bytes;
    // First touch in the row's first page, then each page boundary crossed.
    VirtAddr addr = row_start;
    while (addr < row_end) {
      if (addr / page_bytes != last_vpn) {
        visit(addr);
        last_vpn = addr / page_bytes;
      }
      // Advance to the first element of the next page touched by this row.
      const VirtAddr next_page = (addr / page_bytes + 1) * page_bytes;
      if (next_page >= row_end) break;
      // Elements are contiguous within the row, so the first element in the
      // next page starts at the first element boundary >= next_page.
      const std::uint64_t into_row = next_page - row_start;
      const std::uint64_t elem_index =
          (into_row + matrix.elem_bytes - 1) / matrix.elem_bytes;
      addr = row_start + elem_index * matrix.elem_bytes;
    }
  }
}

// The for_each_page_entry addresses, collected. The hardware mATLB always
// works at kPageSize; other page sizes serve what-if studies (64 KiB /
// 2 MiB pages).
std::vector<VirtAddr> predict_page_entries(const MatrixDesc& matrix,
                                           const TileDesc& tile);
std::vector<VirtAddr> predict_page_entries(const MatrixDesc& matrix,
                                           const TileDesc& tile,
                                           std::uint64_t page_bytes);

// Count of distinct pages covered by a tile (for sizing/coverage analysis).
std::uint64_t distinct_pages(const MatrixDesc& matrix, const TileDesc& tile);

class Matlb {
 public:
  struct Entry {
    std::uint64_t vpn = 0;
    std::uint64_t ppn = 0;
    sim::TimePs ready_at = 0;  // when the prefetched walk completes
  };

  struct PrefillReport {
    std::size_t predicted_pages = 0;   // entries enqueued
    std::size_t dropped_capacity = 0;  // predictions beyond buffer capacity
    sim::TimePs total_walk_latency = 0;
    std::size_t faults = 0;
  };

  Matlb(std::string name, std::size_t capacity);

  // Resolve predictions for `tile` of `matrix` through the walker, starting
  // walks at `start`. Walks are issued back-to-back (the mATLB owns an MMU
  // request port), so entry i becomes ready at start + sum(lat[0..i]).
  PrefillReport prefill(Asid asid, const PageTable& table,
                        PageTableWalker& walker, const MatrixDesc& matrix,
                        const TileDesc& tile, sim::TimePs start);

  // Stream-ordered lookup: retires leading entries that no longer match,
  // then returns the translation if the head matches `va`'s page.
  // `now` is used to detect not-yet-ready entries (late prediction).
  struct LookupResult {
    bool hit = false;
    PhysAddr phys = 0;
    sim::TimePs wait = 0;  // extra wait if prediction not yet complete
  };
  LookupResult lookup(VirtAddr va, sim::TimePs now);

  void flush() noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return buffer_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t retired() const noexcept { return retired_; }
  std::uint64_t late_predictions() const noexcept { return late_; }
  void reset_stats() noexcept { hits_ = misses_ = retired_ = late_ = 0; }

 private:
  std::string name_;
  std::size_t capacity_;
  std::deque<Entry> buffer_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t late_ = 0;
};

}  // namespace maco::vm

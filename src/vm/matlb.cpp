#include "vm/matlb.hpp"

#include <unordered_set>

#include "util/assert.hpp"

namespace maco::vm {

std::vector<VirtAddr> predict_page_entries(const MatrixDesc& matrix,
                                           const TileDesc& tile,
                                           std::uint64_t page_bytes) {
  std::vector<VirtAddr> entries;
  for_each_page_entry(matrix, tile, page_bytes,
                      [&](VirtAddr addr) { entries.push_back(addr); });
  return entries;
}

std::vector<VirtAddr> predict_page_entries(const MatrixDesc& matrix,
                                           const TileDesc& tile) {
  return predict_page_entries(matrix, tile, kPageSize);
}

std::uint64_t distinct_pages(const MatrixDesc& matrix, const TileDesc& tile) {
  std::unordered_set<std::uint64_t> pages;
  for (const VirtAddr va : predict_page_entries(matrix, tile)) {
    pages.insert(vpn_of(va));
  }
  return pages.size();
}

Matlb::Matlb(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity) {
  MACO_ASSERT_MSG(capacity_ > 0, "mATLB " << name_ << " needs capacity");
}

Matlb::PrefillReport Matlb::prefill(Asid asid, const PageTable& table,
                                    PageTableWalker& walker,
                                    const MatrixDesc& matrix,
                                    const TileDesc& tile, sim::TimePs start) {
  PrefillReport report;
  sim::TimePs ready = start;
  for (const VirtAddr va : predict_page_entries(matrix, tile)) {
    if (buffer_.size() >= capacity_) {
      ++report.dropped_capacity;
      continue;
    }
    const WalkOutcome outcome = walker.walk(asid, table, va);
    if (!outcome.valid) {
      ++report.faults;
      continue;
    }
    ready += outcome.latency;
    report.total_walk_latency += outcome.latency;
    buffer_.push_back(Entry{vpn_of(va), ppn_of(outcome.phys), ready});
    ++report.predicted_pages;
  }
  return report;
}

Matlb::LookupResult Matlb::lookup(VirtAddr va, sim::TimePs now) {
  const std::uint64_t vpn = vpn_of(va);
  // Retire entries the stream has moved past (paper: "removed from the
  // buffer once it fails to match the current virtual address").
  while (!buffer_.empty() && buffer_.front().vpn != vpn) {
    buffer_.pop_front();
    ++retired_;
  }
  if (buffer_.empty()) {
    ++misses_;
    return LookupResult{};
  }
  const Entry& head = buffer_.front();
  ++hits_;
  LookupResult result;
  result.hit = true;
  result.phys = (head.ppn << kPageBits) | page_offset(va);
  if (head.ready_at > now) {
    result.wait = head.ready_at - now;
    ++late_;
  }
  return result;
}

void Matlb::flush() noexcept {
  buffer_.clear();
}

}  // namespace maco::vm

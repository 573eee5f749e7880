// Fully-associative LRU TLB, keyed by (ASID, VPN).
//
// Models the paper's shared L2 TLB (1024 entries) that the MMAE reaches
// through its custom sTLB interface. Entries are tagged with their ASID, so
// a context switch needs no flush, and a page stays mapped once allocated,
// so no entry is ever invalidated: entries leave only by LRU eviction.
//
// Storage is flat: `capacity` entry slots reserved up front, recency kept as
// a doubly linked list of slot indices (head = most recent), and an
// open-addressing (linear probing, backward-shift deletion) index from
// (ASID, VPN) to slot at load factor <= 1/2. Steady-state lookups, fills and
// evictions allocate nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "vm/types.hpp"

namespace maco::vm {

class Tlb {
 public:
  Tlb(std::string name, std::size_t capacity);

  // On hit returns the PPN and refreshes recency.
  std::optional<std::uint64_t> lookup(Asid asid, std::uint64_t vpn);
  // Probe without touching recency or statistics (diagnostics).
  bool contains(Asid asid, std::uint64_t vpn) const;

  void insert(Asid asid, std::uint64_t vpn, std::uint64_t ppn);

  const std::string& name() const noexcept { return name_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return slots_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  double hit_rate() const noexcept {
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 0.0;
  }
  void reset_stats() noexcept { hits_ = misses_ = evictions_ = 0; }

 private:
  using SlotIndex = std::uint32_t;
  static constexpr SlotIndex kNone = ~SlotIndex{0};

  // One resident entry. The key lives in its bucket.
  struct Slot {
    std::uint64_t ppn;
    std::uint32_t bucket;  // where index_ holds this entry's key
    SlotIndex prev;        // toward the MRU end
    SlotIndex next;        // toward the LRU end
  };
  struct Bucket {
    std::uint64_t vpn;
    Asid asid;
    SlotIndex slot;  // kNone: empty
  };

  std::size_t home_bucket(Asid asid, std::uint64_t vpn) const noexcept;
  // The bucket holding (asid, vpn), or the empty bucket ending its probe.
  std::size_t probe(Asid asid, std::uint64_t vpn) const noexcept;
  void erase_bucket(std::size_t bucket) noexcept;
  void unlink(SlotIndex slot) noexcept;
  void push_front(SlotIndex slot) noexcept;

  std::string name_;
  std::size_t capacity_;
  std::vector<Slot> slots_;    // one per entry; reserved to capacity_
  std::vector<Bucket> index_;  // power-of-two bucket count
  unsigned index_shift_ = 0;   // 64 - log2(index_.size())
  SlotIndex head_ = kNone;     // most recently used
  SlotIndex tail_ = kNone;     // least recently used
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace maco::vm

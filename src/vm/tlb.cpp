#include "vm/tlb.hpp"

#include "util/assert.hpp"

namespace maco::vm {

Tlb::Tlb(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity) {
  MACO_ASSERT_MSG(capacity_ > 0, "TLB " << name_ << " needs capacity");
  MACO_ASSERT_MSG(capacity_ < kNone / 2,
                  "TLB " << name_ << " capacity " << capacity_
                         << " exceeds the slot index range");
  unsigned bits = 1;
  while ((std::size_t{1} << bits) < 2 * capacity_) ++bits;
  index_.assign(std::size_t{1} << bits, Bucket{0, 0, kNone});
  index_shift_ = 64 - bits;
  slots_.reserve(capacity_);
}

std::size_t Tlb::home_bucket(Asid asid, std::uint64_t vpn) const noexcept {
  // Fibonacci hashing; vpn entropy dominates, the ASID folds into the high
  // bits.
  const std::uint64_t key = vpn ^ (static_cast<std::uint64_t>(asid) << 48);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  index_shift_);
}

std::size_t Tlb::probe(Asid asid, std::uint64_t vpn) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t bucket = home_bucket(asid, vpn);
  while (index_[bucket].slot != kNone &&
         (index_[bucket].vpn != vpn || index_[bucket].asid != asid)) {
    bucket = (bucket + 1) & mask;
  }
  return bucket;
}

void Tlb::erase_bucket(std::size_t hole) noexcept {
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless that would move it before its home bucket.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t bucket = (hole + 1) & mask; index_[bucket].slot != kNone;
       bucket = (bucket + 1) & mask) {
    const std::size_t home =
        home_bucket(index_[bucket].asid, index_[bucket].vpn);
    if (((bucket - home) & mask) >= ((bucket - hole) & mask)) {
      index_[hole] = index_[bucket];
      slots_[index_[hole].slot].bucket = static_cast<std::uint32_t>(hole);
      hole = bucket;
    }
  }
  index_[hole].slot = kNone;
}

void Tlb::unlink(SlotIndex slot) noexcept {
  const Slot& s = slots_[slot];
  if (s.prev != kNone) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNone) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
}

void Tlb::push_front(SlotIndex slot) noexcept {
  Slot& s = slots_[slot];
  s.prev = kNone;
  s.next = head_;
  if (head_ != kNone) {
    slots_[head_].prev = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
}

void Tlb::remove(SlotIndex slot) noexcept {
  erase_bucket(slots_[slot].bucket);
  unlink(slot);
  --size_;
}

std::optional<std::uint64_t> Tlb::lookup(Asid asid, std::uint64_t vpn) {
  const SlotIndex slot = index_[probe(asid, vpn)].slot;
  if (slot == kNone) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  if (slot != head_) {  // move to MRU
    unlink(slot);
    push_front(slot);
  }
  return slots_[slot].ppn;
}

bool Tlb::contains(Asid asid, std::uint64_t vpn) const {
  return index_[probe(asid, vpn)].slot != kNone;
}

void Tlb::insert(Asid asid, std::uint64_t vpn, std::uint64_t ppn) {
  std::size_t bucket = probe(asid, vpn);
  if (const SlotIndex slot = index_[bucket].slot; slot != kNone) {
    slots_[slot].ppn = ppn;
    if (slot != head_) {
      unlink(slot);
      push_front(slot);
    }
    return;
  }
  SlotIndex slot;
  if (size_ == capacity_) {
    slot = tail_;
    remove(slot);
    ++evictions_;
    bucket = probe(asid, vpn);  // the eviction may have shifted the run
  } else if (free_ != kNone) {
    slot = free_;
    free_ = slots_[slot].next;
  } else {
    slot = static_cast<SlotIndex>(slots_.size());
    slots_.emplace_back();
  }
  index_[bucket] = Bucket{vpn, asid, slot};
  slots_[slot].ppn = ppn;
  slots_[slot].bucket = static_cast<std::uint32_t>(bucket);
  push_front(slot);
  ++size_;
}

void Tlb::invalidate(Asid asid, std::uint64_t vpn) {
  const SlotIndex slot = index_[probe(asid, vpn)].slot;
  if (slot == kNone) return;
  remove(slot);
  slots_[slot].next = free_;
  free_ = slot;
}

void Tlb::invalidate_asid(Asid asid) {
  for (SlotIndex slot = head_; slot != kNone;) {
    const SlotIndex next = slots_[slot].next;
    if (index_[slots_[slot].bucket].asid == asid) {
      remove(slot);
      slots_[slot].next = free_;
      free_ = slot;
    }
    slot = next;
  }
}

void Tlb::invalidate_all() {
  slots_.clear();
  for (Bucket& bucket : index_) bucket.slot = kNone;
  head_ = tail_ = free_ = kNone;
  size_ = 0;
}

}  // namespace maco::vm

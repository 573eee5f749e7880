// Set-associative cache timing/state model.
//
// Tags only — data bytes live in PhysicalMemory. A line is clean or dirty
// (a dirty victim needs a write-back) and may be locked (used by the
// L3/CCM for the paper's stash-and-lock scheme: locked lines are never
// chosen as eviction victims). Replacement is true LRU, kept as a per-set
// recency rank so a way costs 10 bytes of host memory. A touch ages the
// more recent ways 16 ranks at a time, so the L3's 16 ways update as one
// vector, and costs nothing when the way is already the most recent.
//
// The machine's L3 is one such store for all its slices, indexed by
// physical line (see mem/ccm.hpp). Every DMA line goes through access(),
// so it and the lookups it uses are defined here, where the L3 slices'
// request handling inlines them.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace maco::mem {

inline constexpr unsigned kLineBytes = 64;

constexpr std::uint64_t line_addr(std::uint64_t addr) noexcept {
  return addr & ~static_cast<std::uint64_t>(kLineBytes - 1);
}

struct CacheConfig {
  std::uint64_t size_bytes = 512 * 1024;
  unsigned ways = 8;
  unsigned line_bytes = kLineBytes;
};

class SetAssocCache {
 public:
  // Aborts (MACO_ASSERT) on a geometry that does not divide evenly or has
  // more than 256 ways (a recency rank is one byte).
  SetAssocCache(std::string name, const CacheConfig& config);

  struct AccessResult {
    bool hit = false;
    bool allocated = false;  // line now resident (false if all ways locked)
    bool evicted = false;
    std::uint64_t victim_addr = 0;
    bool victim_dirty = false;  // victim was written (needs writeback)
  };

  // Allocate-on-miss access; a read installs the line clean, a write
  // installs it or marks it dirty.
  AccessResult access(std::uint64_t addr, bool write);

  // Whether the line is resident, without touching its recency.
  bool probe(std::uint64_t addr) const;

  // Lock management (L3 only): returns false if the line is absent.
  bool lock(std::uint64_t addr);
  bool unlock(std::uint64_t addr);
  bool is_locked(std::uint64_t addr) const;
  std::uint64_t locked_lines() const noexcept { return locked_count_; }

  const std::string& name() const noexcept { return name_; }
  const CacheConfig& config() const noexcept { return config_; }
  std::uint64_t sets() const noexcept { return sets_; }

 private:
  // Each set is one block of `block_words_` words: `ways` tag keys
  // (tag + 1; 0 marks an invalid way), then one flag byte per way holding
  // kDirtyBit and kLockBit, then one recency rank per way. The ranks of a
  // set are always a permutation of 0..ways-1, 0 the most recently touched
  // way, so among valid ways rank order is last-touch order.
  static constexpr std::uint8_t kDirtyBit = 0x01;
  static constexpr std::uint8_t kLockBit = 0x80;
  struct Way {
    std::uint64_t* keys = nullptr;  // the set's block; null when absent
    unsigned way = 0;
    explicit operator bool() const noexcept { return keys != nullptr; }
  };

  std::uint64_t set_index(std::uint64_t addr) const noexcept {
    const std::uint64_t line = addr >> line_shift_;
    return set_mask_ ? (line & set_mask_) : (line % sets_);
  }
  std::uint64_t tag_of(std::uint64_t addr) const noexcept {
    const std::uint64_t line = addr >> line_shift_;
    return set_mask_ ? (line >> set_shift_) : (line / sets_);
  }
  std::uint64_t* block(std::uint64_t set) noexcept {
    return blocks_.data() + set * block_words_;
  }
  std::uint8_t* flags(std::uint64_t* keys) const noexcept {
    return reinterpret_cast<std::uint8_t*>(keys + config_.ways);
  }
  std::uint8_t* ranks(std::uint64_t* keys) const noexcept {
    return flags(keys) + config_.ways;
  }
  // Makes `way` the set's most recent way.
  void touch(std::uint64_t* keys, unsigned way) noexcept;
  Way find(std::uint64_t addr) const;

  std::string name_;
  CacheConfig config_;
  std::uint64_t sets_;
  // Index/tag arithmetic runs on every simulated memory reference, so the
  // divisions are precomputed into shifts where the geometry is a power of
  // two (line size always is; a 48 KiB 4-way cache's 192 sets are not).
  unsigned line_shift_ = 6;
  unsigned set_shift_ = 0;   // valid iff set_mask_ != 0
  std::uint64_t set_mask_ = 0;  // sets_ - 1 when sets_ is a power of two
  unsigned block_words_ = 0;
  std::vector<std::uint64_t> blocks_;  // sets_ blocks of block_words_
  std::uint64_t locked_count_ = 0;
};

inline void SetAssocCache::touch(std::uint64_t* keys, unsigned way) noexcept {
  std::uint8_t* rank = ranks(keys);
  const std::uint8_t old = rank[way];
  if (old == 0) return;  // already the most recent way
  // Every way more recent than `way` ages by one. GCC does not vectorize
  // this for a way count it only learns at run time, so the ranks age in
  // 16-byte chunks copied through a local array, each one vector
  // compare-and-add (the L3's 16 ways are one chunk), then one at a time.
  constexpr unsigned kChunk = 16;
  const unsigned ways = config_.ways;
  unsigned w = 0;
  for (; w + kChunk <= ways; w += kChunk) {
    std::uint8_t chunk[kChunk];
    std::memcpy(chunk, rank + w, kChunk);
    for (unsigned i = 0; i < kChunk; ++i) chunk[i] += chunk[i] < old;
    std::memcpy(rank + w, chunk, kChunk);
  }
  for (; w < ways; ++w) rank[w] += rank[w] < old;
  rank[way] = 0;
}

inline SetAssocCache::Way SetAssocCache::find(std::uint64_t addr) const {
  std::uint64_t* keys =
      const_cast<SetAssocCache*>(this)->block(set_index(addr));
  const std::uint64_t key = tag_of(addr) + 1;
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (keys[w] == key) return {keys, w};
  }
  return {};
}

inline SetAssocCache::AccessResult SetAssocCache::access(std::uint64_t addr,
                                                         bool write) {
  AccessResult result;
  if (const Way hit = find(addr)) {
    touch(hit.keys, hit.way);
    if (write) flags(hit.keys)[hit.way] |= kDirtyBit;
    result.hit = true;
    result.allocated = true;
    return result;
  }

  // Choose a victim: invalid way first, else LRU among unlocked lines.
  const std::uint64_t set = set_index(addr);
  std::uint64_t* keys = block(set);
  std::uint8_t* flag = flags(keys);
  const std::uint8_t* rank = ranks(keys);
  unsigned victim = config_.ways;
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (keys[w] == 0) {
      victim = w;
      break;
    }
  }
  if (victim == config_.ways) {
    int oldest = -1;
    for (unsigned w = 0; w < config_.ways; ++w) {
      if (!(flag[w] & kLockBit) && rank[w] > oldest) {
        oldest = rank[w];
        victim = w;
      }
    }
  }
  if (victim == config_.ways) {
    // Every way is locked: the line cannot be allocated. The caller (CCM)
    // treats this as an uncached access.
    result.allocated = false;
    return result;
  }

  if (keys[victim] != 0) {
    result.evicted = true;
    result.victim_addr =
        ((keys[victim] - 1) * sets_ + set) * config_.line_bytes;
    result.victim_dirty = (flag[victim] & kDirtyBit) != 0;
  }

  keys[victim] = tag_of(addr) + 1;
  flag[victim] = write ? kDirtyBit : 0;
  touch(keys, victim);
  result.allocated = true;
  return result;
}

inline bool SetAssocCache::probe(std::uint64_t addr) const {
  return static_cast<bool>(find(addr));
}

}  // namespace maco::mem

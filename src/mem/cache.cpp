#include "mem/cache.hpp"

#include <cstring>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace maco::mem {

SetAssocCache::SetAssocCache(std::string name, const CacheConfig& config)
    : name_(std::move(name)), config_(config) {
  MACO_ASSERT_MSG(util::is_pow2(config.line_bytes),
                  name_ << ": line size must be a power of two");
  MACO_ASSERT_MSG(config.ways > 0, name_ << ": needs at least one way");
  MACO_ASSERT_MSG(config.ways <= 256,
                  name_ << ": at most 256 ways (one-byte recency ranks)");
  const std::uint64_t lines = config.size_bytes / config.line_bytes;
  MACO_ASSERT_MSG(lines % config.ways == 0 && lines > 0,
                  name_ << ": size/line/ways mismatch");
  sets_ = lines / config.ways;
  // Non-power-of-two set counts are legal (a 48 KiB 4-way cache has 192
  // sets); indexing falls back from mask to modulo in that case.
  line_shift_ = util::log2_floor(config.line_bytes);
  if (util::is_pow2(sets_)) {
    set_mask_ = sets_ - 1;
    set_shift_ = util::log2_floor(sets_);
  }
  // Keys, then the flag and rank bytes rounded up to whole words.
  block_words_ = config.ways + (2 * config.ways + 7) / 8;
  blocks_.resize(sets_ * block_words_);  // zero keys: every way invalid
  for (std::uint64_t set = 0; set < sets_; ++set) {
    std::uint8_t* rank = ranks(block(set));
    for (unsigned w = 0; w < config.ways; ++w) {
      rank[w] = static_cast<std::uint8_t>(w);
    }
  }
}

std::uint64_t SetAssocCache::set_index(std::uint64_t addr) const noexcept {
  const std::uint64_t line = addr >> line_shift_;
  return set_mask_ ? (line & set_mask_) : (line % sets_);
}

std::uint64_t SetAssocCache::tag_of(std::uint64_t addr) const noexcept {
  const std::uint64_t line = addr >> line_shift_;
  return set_mask_ ? (line >> set_shift_) : (line / sets_);
}

void SetAssocCache::touch(std::uint64_t* keys, unsigned way) noexcept {
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

SetAssocCache::Way SetAssocCache::find(std::uint64_t addr) const {
  std::uint64_t* keys =
      const_cast<SetAssocCache*>(this)->block(set_index(addr));
  const std::uint64_t key = tag_of(addr) + 1;
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (keys[w] == key) return {keys, w};
  }
  return {};
}

SetAssocCache::AccessResult SetAssocCache::access(std::uint64_t addr,
                                                  bool write) {
  AccessResult result;
  if (const Way hit = find(addr)) {
    ++hits_;
    touch(hit.keys, hit.way);
    if (write) flags(hit.keys)[hit.way] |= kDirtyBit;
    result.hit = true;
    result.allocated = true;
    return result;
  }

  ++misses_;
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
    ++evictions_;
    if (result.victim_dirty) ++writebacks_;
  }

  keys[victim] = tag_of(addr) + 1;
  flag[victim] = write ? kDirtyBit : 0;
  touch(keys, victim);
  result.allocated = true;
  return result;
}

bool SetAssocCache::probe(std::uint64_t addr) const {
  return static_cast<bool>(find(addr));
}

bool SetAssocCache::lock(std::uint64_t addr) {
  const Way line = find(addr);
  if (!line) return false;
  std::uint8_t& bits = flags(line.keys)[line.way];
  if (!(bits & kLockBit)) {
    bits |= kLockBit;
    ++locked_count_;
  }
  return true;
}

bool SetAssocCache::unlock(std::uint64_t addr) {
  const Way line = find(addr);
  if (!line) return false;
  std::uint8_t& bits = flags(line.keys)[line.way];
  if (bits & kLockBit) {
    bits = static_cast<std::uint8_t>(bits & ~kLockBit);
    --locked_count_;
  }
  return true;
}

bool SetAssocCache::is_locked(std::uint64_t addr) const {
  const Way line = find(addr);
  return line && (flags(line.keys)[line.way] & kLockBit);
}

}  // namespace maco::mem

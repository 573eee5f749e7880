#include "mem/cache.hpp"

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

// Cache Coherence Manager (CCM): one distributed L3 slice with the paper's
// stash (prefetch-into-L3) and lock (pin-in-L3) operations, in front of a
// DRAM channel.
//
// No modeled cache holds a private copy of a line (the MMAE's DMA engines
// read and write through the L3), so the slice keeps no coherence
// directory: a request costs the lookup, the L3 access and, on a miss or a
// dirty victim, the DRAM.
//
// The slices interleave physical lines, and their tags live in one
// SetAssocCache of `slices` times a slice's sets, indexed by physical
// line (l3_store_config). That is the per-slice L3 exactly: with S slices
// of N sets, slice L mod S's local line L / S has local set (L / S) mod N
// and tag L / (S N), and the shared store's set L mod (S N) is local set
// (L / S) mod N of that slice and of no other, with the same tag. So each
// shared set is one slice's set, LRU order and every victim are
// unchanged, and the store reports a victim's physical line itself. A
// slice keeps the hits, misses, evictions and write-backs of the accesses
// it served (the ccmS.l3.* counters).
//
// handle() runs for every line of every DMA burst, so it is defined here
// and compiles in the memory backend's translation unit, with the tag
// store's lookups inlined into it.
#pragma once

#include <cstdint>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/time.hpp"

namespace maco::mem {

enum class CcmReqType : std::uint8_t {
  kGetS,       // read
  kGetM,       // partial-line store: fetch the line, then dirty it
  kPutFull,    // full-line streaming store: allocate without fetching
  kStash,      // prefetch the line into L3 (paper: MA_STASH)
  kStashLock,  // prefetch and pin (paper: CPU config-locks via CCM)
  kUnlock,     // release the pin
};

struct CcmConfig {
  CacheConfig l3{2 * 1024 * 1024, 16, kLineBytes};  // one 2 MiB slice
  sim::TimePs l3_latency_ps = 8'000;                // ~16 NoC cycles
  sim::TimePs lookup_latency_ps = 2'000;
};

// Physical lines interleave across the `slices` L3 slices: line L lives
// in slice L mod slices.
constexpr unsigned home_slice(std::uint64_t addr, unsigned slices) noexcept {
  return static_cast<unsigned>(addr / kLineBytes % slices);
}

// The geometry of the tag store `slices` slices of `config.l3` share.
inline CacheConfig l3_store_config(const CcmConfig& config, unsigned slices) {
  CacheConfig store = config.l3;
  store.size_bytes *= slices;
  return store;
}

class Ccm {
 public:
  // A slice of the L3 whose tags `l3` holds (a store of
  // l3_store_config(config, slices) geometry); the caller hands it only
  // the slice's home lines.
  Ccm(const CcmConfig& config, SetAssocCache& l3, DramModel& dram);

  // Services a `type` request for the line holding `addr` that reaches the
  // slice at `arrival`; returns its latency (arrival -> data/ack ready at
  // the CCM). `queue_dram = false` computes DRAM latency from service
  // times without booking the shared data bus — for requests whose issue
  // time is unknown to the caller (the page-table walker's PTE reads),
  // where booking at a stale timestamp would return absolute backlog as
  // latency.
  sim::TimePs handle(CcmReqType type, std::uint64_t addr, sim::TimePs arrival,
                     bool queue_dram = true);

  bool line_locked(std::uint64_t addr) const { return l3_.is_locked(addr); }

  // The outcomes of the L3 accesses this slice served.
  std::uint64_t l3_hits() const noexcept { return hits_; }
  std::uint64_t l3_misses() const noexcept { return misses_; }
  std::uint64_t l3_evictions() const noexcept { return evictions_; }
  std::uint64_t l3_writebacks() const noexcept { return writebacks_; }

  std::uint64_t stash_hits() const noexcept { return stash_hits_; }
  std::uint64_t stash_fills() const noexcept { return stash_fills_; }

 private:
  // Accesses the line in the L3 and counts the outcome.
  SetAssocCache::AccessResult access(std::uint64_t line, bool write) {
    const SetAssocCache::AccessResult result = l3_.access(line, write);
    ++(result.hit ? hits_ : misses_);
    evictions_ += result.evicted;
    writebacks_ += result.victim_dirty;
    return result;
  }
  // Accesses the line in L3 at `now`, fetching it from DRAM on a miss;
  // returns the added latency.
  sim::TimePs fill(std::uint64_t line, bool write, sim::TimePs now,
                   bool queue_dram);

  CcmConfig config_;
  SetAssocCache& l3_;
  DramModel& dram_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t stash_hits_ = 0;
  std::uint64_t stash_fills_ = 0;
};

inline sim::TimePs Ccm::fill(std::uint64_t line, bool write, sim::TimePs now,
                             bool queue_dram) {
  const auto result = access(line, write);
  if (result.hit) return config_.l3_latency_ps;
  if (!queue_dram) {
    // Unqueued estimate: same state transitions, service-time latency.
    sim::TimePs latency = config_.l3_latency_ps;
    if (result.victim_dirty) latency += dram_.service_latency(kLineBytes);
    return latency + dram_.service_latency(kLineBytes);
  }
  // Victim writeback rides the same DRAM bus before the fill.
  sim::TimePs t = now + config_.l3_latency_ps;
  if (result.victim_dirty) {
    t = dram_.access(t, result.victim_addr, kLineBytes);
  }
  // With every way locked the line is not allocated and is served
  // uncached by the same DRAM read.
  return dram_.access(t, line, kLineBytes) - now;
}

inline sim::TimePs Ccm::handle(CcmReqType type, std::uint64_t addr,
                               sim::TimePs arrival, bool queue_dram) {
  const std::uint64_t line = line_addr(addr);
  sim::TimePs latency = config_.lookup_latency_ps;
  switch (type) {
    case CcmReqType::kGetS:
    case CcmReqType::kGetM:
      latency += fill(line, type == CcmReqType::kGetM, arrival + latency,
                      queue_dram);
      break;
    case CcmReqType::kPutFull: {
      // Full-line store: the writer overwrites every byte, so no fetch.
      const auto result = access(line, /*write=*/true);
      latency += config_.l3_latency_ps;
      if (result.victim_dirty && queue_dram) {
        // Posted victim writeback: books the bus, off the critical path.
        dram_.access(arrival + latency, result.victim_addr, kLineBytes);
      }
      if (!result.allocated) {
        // Every way locked: the store streams straight to DRAM.
        const sim::TimePs at = arrival + latency;
        latency += queue_dram ? dram_.access(at, line, kLineBytes) - at
                              : dram_.service_latency(kLineBytes);
      }
      break;
    }
    case CcmReqType::kStash:
      if (l3_.probe(line)) {
        ++stash_hits_;
        latency += config_.l3_latency_ps;
      } else {
        ++stash_fills_;
        latency += fill(line, /*write=*/false, arrival + latency, queue_dram);
      }
      break;
    case CcmReqType::kStashLock:
      // Same fill/hit accounting as kStash, plus the lock.
      if (l3_.probe(line)) {
        ++stash_hits_;
      } else {
        ++stash_fills_;
      }
      latency += fill(line, /*write=*/false, arrival + latency, queue_dram);
      l3_.lock(line);
      break;
    case CcmReqType::kUnlock:
      l3_.unlock(line);
      break;
  }
  return latency;
}

}  // namespace maco::mem

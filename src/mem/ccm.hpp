// Cache Coherence Manager (CCM): one distributed L3 slice with the paper's
// stash (prefetch-into-L3) and lock (pin-in-L3) operations, in front of a
// DRAM channel.
//
// No modeled cache holds a private copy of a line (the MMAE's DMA engines
// read and write through the L3), so the slice keeps no coherence
// directory: a request costs the lookup, the L3 access and, on a miss or a
// dirty victim, the DRAM.
#pragma once

#include <cstdint>
#include <string>

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
// in slice L mod slices, as that slice's local line L / slices.
constexpr unsigned home_slice(std::uint64_t addr, unsigned slices) noexcept {
  return static_cast<unsigned>(addr / kLineBytes % slices);
}

class Ccm {
 public:
  // Slice `slice` of `slices`: it sees only its home lines, and its sets
  // index their local lines (or a strided stream would use 1/slices of
  // them).
  Ccm(const std::string& name, const CcmConfig& config, DramModel& dram,
      unsigned slice = 0, unsigned slices = 1);

  // Services a `type` request for the line holding `addr` that reaches the
  // slice at `arrival`; returns its latency (arrival -> data/ack ready at
  // the CCM). `queue_dram = false` computes DRAM latency from service
  // times without booking the shared data bus — for requests whose issue
  // time is unknown to the caller (the page-table walker's PTE reads),
  // where booking at a stale timestamp would return absolute backlog as
  // latency.
  sim::TimePs handle(CcmReqType type, std::uint64_t addr, sim::TimePs arrival,
                     bool queue_dram = true);

  bool line_locked(std::uint64_t addr) const {
    return l3_.is_locked(cache_addr(addr));
  }

  const SetAssocCache& l3() const noexcept { return l3_; }

  std::uint64_t stash_hits() const noexcept { return stash_hits_; }
  std::uint64_t stash_fills() const noexcept { return stash_fills_; }

 private:
  // The local line of `addr`, as a byte address of the slice's cache.
  std::uint64_t cache_addr(std::uint64_t addr) const noexcept {
    return addr / kLineBytes / slices_ * kLineBytes;
  }
  // The physical line of the cache address `l3_` reports for a victim,
  // where its write-back goes.
  std::uint64_t victim_line(std::uint64_t victim_cache_addr) const noexcept {
    return (victim_cache_addr / kLineBytes * slices_ + slice_) * kLineBytes;
  }
  // Accesses the line in L3 at `now`, fetching it from DRAM on a miss;
  // returns the added latency.
  sim::TimePs fill(std::uint64_t line, bool write, sim::TimePs now,
                   bool queue_dram);

  CcmConfig config_;
  unsigned slice_;
  unsigned slices_;
  DramModel& dram_;
  SetAssocCache l3_;
  std::uint64_t stash_hits_ = 0;
  std::uint64_t stash_fills_ = 0;
};

}  // namespace maco::mem

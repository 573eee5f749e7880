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
  // Line-interleave factor of the address space across slices. The slice
  // only ever sees every interleave-th line, so the interleave bits must
  // be stripped before set indexing or 15/16 of the sets go unused.
  unsigned slice_interleave = 1;
};

class Ccm {
 public:
  Ccm(const std::string& name, const CcmConfig& config, DramModel& dram);

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
    return l3_.is_locked(cache_addr(line_addr(addr)));
  }

  const SetAssocCache& l3() const noexcept { return l3_; }

  std::uint64_t stash_hits() const noexcept { return stash_hits_; }
  std::uint64_t stash_fills() const noexcept { return stash_fills_; }

 private:
  // Address as the slice's cache sees it (interleave bits stripped).
  std::uint64_t cache_addr(std::uint64_t line) const noexcept {
    return line / config_.slice_interleave;
  }
  // Accesses the line in L3 at `now`, fetching it from DRAM on a miss;
  // returns the added latency.
  sim::TimePs fill(std::uint64_t line, bool write, sim::TimePs now,
                   bool queue_dram);

  // Physical line address of the cache-space victim `l3_` reports. The
  // cache reconstructs victims at line granularity, so the interleave
  // offset inside the cache line is lost — the result lands in the
  // victim's row-buffer neighborhood, which is all a banked DRAM model
  // needs from a writeback address.
  std::uint64_t victim_line(std::uint64_t victim_cache_addr) const noexcept {
    return victim_cache_addr * config_.slice_interleave;
  }

  CcmConfig config_;
  DramModel& dram_;
  SetAssocCache l3_;
  std::uint64_t stash_hits_ = 0;
  std::uint64_t stash_fills_ = 0;
};

}  // namespace maco::mem

// Cache Coherence Manager (CCM): one distributed L3 slice plus a
// directory implementing a MOESI protocol, with the paper's stash
// (prefetch-into-L3) and lock (pin-in-L3) operations.
//
// The directory is *blocking*: requests to a line are serialized, which is
// exact for this single-threaded event simulation. Owner recalls
// (invalidate/fetch from a private cache) are delegated to a registered
// RecallFn so the CCM does not need to know the private hierarchy's shape;
// the system layer implements it against the CPU cache models.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/time.hpp"

namespace maco::mem {

enum class CcmReqType : std::uint8_t {
  kGetS,       // read, shared
  kGetM,       // read-for-ownership (write)
  kPutFull,    // full-line streaming store: allocate without fetching
  kPutM,       // writeback of a modified line
  kStash,      // prefetch the line into L3 (paper: MA_STASH)
  kStashLock,  // prefetch and pin (paper: CPU config-locks via CCM)
  kUnlock,     // release the pin
};

struct CcmRequest {
  CcmReqType type = CcmReqType::kGetS;
  int node = 0;  // requesting compute node
  std::uint64_t addr = 0;
};

struct CcmResponse {
  sim::TimePs latency = 0;  // request arrival -> data/ack ready at CCM
  bool l3_hit = false;
  bool dram_accessed = false;
  bool recalled = false;  // a private-cache owner had to be recalled
};

struct CcmConfig {
  CacheConfig l3{2 * 1024 * 1024, 16, kLineBytes};  // one 2 MiB slice
  sim::TimePs l3_latency_ps = 8'000;                // ~16 NoC cycles
  sim::TimePs directory_latency_ps = 2'000;
  // Line-interleave factor of the address space across slices. The slice
  // only ever sees every interleave-th line, so the interleave bits must
  // be stripped before set indexing or 15/16 of the sets go unused.
  unsigned slice_interleave = 1;
};

class DirectoryCcm {
 public:
  // RecallFn(owner_node, line) -> latency for the owner to flush/invalidate.
  // It must not send requests to this directory (see handle()).
  using RecallFn =
      std::function<sim::TimePs(int owner_node, std::uint64_t line)>;

  DirectoryCcm(std::string name, const CcmConfig& config,
               DramModel& dram, RecallFn recall = {});
  // Not copyable: last_chunk_ points into this object's own chunks_.
  DirectoryCcm(const DirectoryCcm&) = delete;
  DirectoryCcm& operator=(const DirectoryCcm&) = delete;

  // `queue_dram = false` computes DRAM latency from service times without
  // booking the shared data bus — for requests whose issue time is unknown
  // to the caller (the page-table walker's PTE reads), where booking at a
  // stale timestamp would return absolute backlog as latency.
  CcmResponse handle(const CcmRequest& request, sim::TimePs now,
                     bool queue_dram = true);

  // Directory introspection (tests/diagnostics).
  CoherenceState node_view(int node, std::uint64_t addr) const;
  bool line_locked(std::uint64_t addr) const {
    return l3_.is_locked(cache_addr(line_addr(addr)));
  }
  std::uint64_t sharer_mask(std::uint64_t addr) const;

  SetAssocCache& l3() noexcept { return l3_; }
  const SetAssocCache& l3() const noexcept { return l3_; }

  std::uint64_t recalls() const noexcept { return recalls_; }
  std::uint64_t stash_hits() const noexcept { return stash_hits_; }
  std::uint64_t stash_fills() const noexcept { return stash_fills_; }

 private:
  struct DirEntry {
    std::uint64_t sharers = 0;  // bitmask of nodes with the line
    int owner = -1;             // node holding M/E/O, -1 if none
  };

  // Directory state lives in chunks of kChunkLines consecutive slice-local
  // lines (the lines this slice serves, interleave bits stripped as for
  // the L3), so a DMA stream touches one chunk per kChunkLines lines
  // instead of allocating a map node per line. A chunk is keyed by its
  // first line's global line number, which also keeps apart lines that
  // differ only in their interleave residue.
  //
  // Each line is one byte: the limited-pointer directory with full-map
  // overflow of Agarwal et al. (ISCA 1988), with one pointer.
  //   0           untracked (no sharers, no owner)
  //   1..64       one clean sharer, node = code - 1
  //   65..128     owned by node code - 65, which is its only sharer
  //   kOverflow   any other state, held in the chunk's `overflow` array,
  //               allocated by the chunk's first such line
  static constexpr std::uint64_t kChunkLines = 64;
  static constexpr std::uint8_t kOverflow = 255;
  struct Chunk {
    std::array<std::uint8_t, kChunkLines> codes{};
    std::unique_ptr<std::array<DirEntry, kChunkLines>> overflow;
  };
  struct Slot {
    std::uint64_t key;    // chunk key (global line number of its first line)
    std::uint64_t index;  // entry within the chunk
  };
  Slot slot_of(std::uint64_t line) const noexcept {
    const std::uint64_t global = line / kLineBytes;
    const std::uint64_t index =
        (global / config_.slice_interleave) % kChunkLines;
    return {global - index * config_.slice_interleave, index};
  }
  // The chunk with key `key`, creating it on first touch.
  Chunk& chunk_at(std::uint64_t key);
  // The entry of `line`; untracked when its chunk was never touched.
  DirEntry find_entry(std::uint64_t line) const;
  static DirEntry decode(const Chunk& chunk, std::uint64_t index);
  static void encode(Chunk& chunk, std::uint64_t index, const DirEntry& dir);
  // Address as the slice's cache sees it (interleave bits stripped).
  std::uint64_t cache_addr(std::uint64_t line) const noexcept {
    return line / config_.slice_interleave;
  }
  // Fetches the line into L3 if absent; returns added latency.
  sim::TimePs ensure_in_l3(std::uint64_t line, sim::TimePs now,
                           CcmResponse& response, bool queue_dram);

  // Physical line address of the cache-space victim `l3_` reports. The
  // cache reconstructs victims at line granularity, so the interleave
  // offset inside the cache line is lost — the result lands in the
  // victim's row-buffer neighborhood, which is all a banked DRAM model
  // needs from a writeback address.
  std::uint64_t victim_line(std::uint64_t victim_cache_addr) const noexcept {
    return victim_cache_addr * config_.slice_interleave;
  }

  std::string name_;
  CcmConfig config_;
  DramModel& dram_;
  RecallFn recall_;
  SetAssocCache l3_;
  // Node-based map: chunk references stay valid across rehashes, so the
  // last chunk looked up is cached by pointer.
  std::unordered_map<std::uint64_t, Chunk> chunks_;
  std::uint64_t last_key_ = ~std::uint64_t{0};  // no line maps to this key
  Chunk* last_chunk_ = nullptr;
  std::uint64_t recalls_ = 0;
  std::uint64_t stash_hits_ = 0;
  std::uint64_t stash_fills_ = 0;
};

}  // namespace maco::mem

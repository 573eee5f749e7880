// MMAE DMA engines.
//
// A DMA engine streams 2D regions between the memory system (L3 / DRAM,
// reached over the NoC) and the MMAE's tile buffers. Every page boundary in
// the stream needs a translation: with the mATLB attached, translations were
// predicted and walked ahead of time (latency hidden unless the prediction
// is late); without it, the engine blocks on the shared TLB / page-table
// walker — exactly the overhead Fig. 6 quantifies.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "cpu/mmu.hpp"
#include "sim/time.hpp"
#include "vm/layout.hpp"
#include "vm/matlb.hpp"

namespace maco::mmae {

// Timing+functional port to the memory system, implemented by the system
// layer (NoC latency/contention + CCM/L3 + DRAM) and by simple fixtures
// in unit tests. All calls return the completion time of a transfer that
// begins at `start`.
class MemoryBackend {
 public:
  virtual ~MemoryBackend() = default;
  // False when the memory behind the port holds no values: read leaves
  // `out` untouched, write drops `data`, and the accelerator skips the
  // systolic array's FP math (see core::SystemConfig::carry_values).
  virtual bool carries_values() const { return true; }
  virtual sim::TimePs read(int node, vm::PhysAddr pa, void* out,
                           std::uint32_t bytes, sim::TimePs start) = 0;
  virtual sim::TimePs write(int node, vm::PhysAddr pa, const void* data,
                            std::uint32_t bytes, sim::TimePs start) = 0;
  // Prefetch into L3 (optionally pinning the lines); no data movement to
  // the requester.
  virtual sim::TimePs stash(int node, vm::PhysAddr pa, std::uint32_t bytes,
                            bool lock, sim::TimePs start) = 0;
};

// A strided 2D region of virtual memory (rows of row_bytes, stride apart).
struct Region2D {
  vm::VirtAddr base = 0;
  std::uint64_t rows = 1;
  std::uint64_t row_bytes = 0;
  std::uint64_t stride = 0;  // 0 => dense

  std::uint64_t effective_stride() const noexcept {
    return stride ? stride : row_bytes;
  }
  std::uint64_t total_bytes() const noexcept { return rows * row_bytes; }
};

// Everything the DMA needs to translate addresses for one process.
struct TranslationContext {
  vm::Asid asid = 0;
  const vm::PageTable* table = nullptr;
  cpu::Mmu* mmu = nullptr;     // blocking path (shared TLB + walker)
  vm::Matlb* matlb = nullptr;  // predictive path; null => always block
};

struct DmaResult {
  sim::TimePs end_time = 0;
  std::uint64_t bytes = 0;
  std::uint64_t matlb_hits = 0;
  std::uint64_t blocking_walks = 0;  // translations that stalled the stream
  sim::TimePs translation_stall_ps = 0;
  bool fault = false;
};

struct DmaConfig {
  // Fixed engine overhead per programmed transfer (descriptor fetch etc.).
  sim::TimePs setup_ps = 1600;  // 4 MMAE cycles
  // Request pipelining: bursts in flight before issue stalls on the oldest
  // completion. Translation misses still stall issue (the engine cannot
  // compute the next physical address).
  unsigned max_outstanding = 8;
  // Issue pacing: the engine's port injects at link rate.
  double issue_bandwidth_bytes_per_second = 64e9;
};

class DmaEngine {
 public:
  DmaEngine(std::string name, int node, const DmaConfig& config,
            MemoryBackend& backend);

  // Reads `region` into `out` (row-major, rows*row_bytes bytes).
  DmaResult read_region(const Region2D& region, std::span<std::uint8_t> out,
                        const TranslationContext& ctx, sim::TimePs start);

  // Writes `data` to `region`.
  DmaResult write_region(const Region2D& region,
                         std::span<const std::uint8_t> data,
                         const TranslationContext& ctx, sim::TimePs start);

  // MA_STASH: prefetch (and optionally lock) the region's lines into L3.
  DmaResult stash_region(const Region2D& region, bool lock,
                         const TranslationContext& ctx, sim::TimePs start);

  // MA_INIT: fill the region with a 64-bit pattern.
  DmaResult init_region(const Region2D& region, std::uint64_t pattern,
                        const TranslationContext& ctx, sim::TimePs start);

 private:
  enum class Op { kRead, kWrite, kStash, kInit };
  DmaResult run(const Region2D& region, Op op, std::span<std::uint8_t> read_out,
                std::span<const std::uint8_t> write_data, bool lock,
                std::uint64_t pattern, const TranslationContext& ctx,
                sim::TimePs start);

  // Translate `va`; updates result counters and returns the completion time
  // of the translation (>= t). Sets result.fault on failure.
  sim::TimePs translate(vm::VirtAddr va, const TranslationContext& ctx,
                        sim::TimePs t, DmaResult& result, vm::PhysAddr* pa);

  std::string name_;
  int node_;
  DmaConfig config_;
  MemoryBackend& backend_;
  sim::TimePs busy_until_ = 0;  // transfers on one engine serialize
};

}  // namespace maco::mmae

// Accelerator Data Engine (ADE).
//
// Owns the MMAE's two DMA engines and the A/B/C tile buffers, and provides
// tile-granularity load/store between matrices in virtual memory and
// HostMatrix staging (the functional image of the on-chip buffers).
// DMA0 handles loads, DMA1 handles stores, so inbound and outbound streams
// overlap (paper Fig. 2: ADE with DMA0/DMA1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmae/dma.hpp"
#include "sa/host_matrix.hpp"
#include "sa/tile_buffer.hpp"

namespace maco::mmae {

class AcceleratorDataEngine {
 public:
  AcceleratorDataEngine(std::string name, int node, const DmaConfig& dma,
                        MemoryBackend& backend);

  // Loads tile `t` of `m` (FP64 elements) into `out` (resized to t.rows ×
  // t.cols). Returns the DMA result (fault => out contents unspecified).
  DmaResult load_tile(const vm::MatrixDesc& m, const vm::TileDesc& t,
                      sa::HostMatrix& out, const TranslationContext& ctx,
                      sim::TimePs start);

  // Stores `in` into tile `t` of `m`.
  DmaResult store_tile(const vm::MatrixDesc& m, const vm::TileDesc& t,
                       const sa::HostMatrix& in, const TranslationContext& ctx,
                       sim::TimePs start);

  // Region ops used by MA_MOVE / MA_INIT / MA_STASH.
  DmaResult move_region(const Region2D& src, const Region2D& dst,
                        const TranslationContext& ctx, sim::TimePs start);
  DmaResult init_region(const Region2D& dst, std::uint64_t pattern,
                        const TranslationContext& ctx, sim::TimePs start);
  DmaResult stash_region(const Region2D& region, bool lock,
                         const TranslationContext& ctx, sim::TimePs start);

  sa::BufferSet& buffers() noexcept { return buffers_; }
  DmaEngine& load_dma() noexcept { return dma0_; }
  DmaEngine& store_dma() noexcept { return dma1_; }

  static Region2D tile_region(const vm::MatrixDesc& m, const vm::TileDesc& t);

 private:
  std::string name_;
  DmaEngine dma0_;  // loads
  DmaEngine dma1_;  // stores
  sa::BufferSet buffers_;
  std::vector<std::uint8_t> staging_;
};

}  // namespace maco::mmae

#include "mmae/data_engine.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace maco::mmae {

AcceleratorDataEngine::AcceleratorDataEngine(std::string name, int node,
                                             const DmaConfig& dma,
                                             MemoryBackend& backend)
    : name_(std::move(name)),
      dma0_(name_ + ".dma0", node, dma, backend),
      dma1_(name_ + ".dma1", node, dma, backend),
      buffers_(sa::BufferSet::maco_default()) {}

Region2D AcceleratorDataEngine::tile_region(const vm::MatrixDesc& m,
                                            const vm::TileDesc& t) {
  vm::validate_tile(m, t);
  return Region2D{m.element_addr(t.row0, t.col0), t.rows,
                  t.cols * m.elem_bytes, m.stride()};
}

DmaResult AcceleratorDataEngine::load_tile(const vm::MatrixDesc& m,
                                           const vm::TileDesc& t,
                                           sa::HostMatrix& out,
                                           const TranslationContext& ctx,
                                           sim::TimePs start) {
  MACO_ASSERT_MSG(m.elem_bytes == sizeof(double),
                  name_ << ": functional tiles are FP64-backed");
  const Region2D region = tile_region(m, t);
  staging_.resize(region.total_bytes());
  const DmaResult result =
      dma0_.read_region(region, staging_, ctx, start);
  if (result.fault) return result;
  out = sa::HostMatrix(t.rows, t.cols);
  for (std::uint64_t r = 0; r < t.rows; ++r) {
    std::memcpy(out.row_ptr(r), staging_.data() + r * region.row_bytes,
                region.row_bytes);
  }
  return result;
}

DmaResult AcceleratorDataEngine::store_tile(const vm::MatrixDesc& m,
                                            const vm::TileDesc& t,
                                            const sa::HostMatrix& in,
                                            const TranslationContext& ctx,
                                            sim::TimePs start) {
  MACO_ASSERT_MSG(m.elem_bytes == sizeof(double),
                  name_ << ": functional tiles are FP64-backed");
  MACO_ASSERT(in.rows() == t.rows && in.cols() == t.cols);
  const Region2D region = tile_region(m, t);
  staging_.resize(region.total_bytes());
  for (std::uint64_t r = 0; r < t.rows; ++r) {
    std::memcpy(staging_.data() + r * region.row_bytes, in.row_ptr(r),
                region.row_bytes);
  }
  return dma1_.write_region(region, staging_, ctx, start);
}

DmaResult AcceleratorDataEngine::move_region(const Region2D& src,
                                             const Region2D& dst,
                                             const TranslationContext& ctx,
                                             sim::TimePs start) {
  MACO_ASSERT_MSG(src.total_bytes() == dst.total_bytes(),
                  name_ << ": move size mismatch");
  staging_.resize(src.total_bytes());
  DmaResult read = dma0_.read_region(src, staging_, ctx, start);
  if (read.fault) return read;
  DmaResult write = dma1_.write_region(dst, staging_, ctx, read.end_time);
  // Merge the two legs for reporting.
  write.bytes += read.bytes;
  write.segments += read.segments;
  write.translations += read.translations;
  write.matlb_hits += read.matlb_hits;
  write.blocking_walks += read.blocking_walks;
  write.translation_stall_ps += read.translation_stall_ps;
  return write;
}

DmaResult AcceleratorDataEngine::init_region(const Region2D& dst,
                                             std::uint64_t pattern,
                                             const TranslationContext& ctx,
                                             sim::TimePs start) {
  return dma1_.init_region(dst, pattern, ctx, start);
}

DmaResult AcceleratorDataEngine::stash_region(const Region2D& region,
                                              bool lock,
                                              const TranslationContext& ctx,
                                              sim::TimePs start) {
  return dma0_.stash_region(region, lock, ctx, start);
}

}  // namespace maco::mmae

#include "sa/latency_model.hpp"

#include "sa/systolic_array.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace maco::sa {

SaTiming compute_sa_timing(const TileShape& shape, const SaConfig& config) {
  return compute_sa_timing(shape, config, simd_ways(config.precision));
}

SaTiming compute_sa_timing(const TileShape& shape, const SaConfig& config,
                           unsigned ways) {
  MACO_ASSERT_MSG(shape.m > 0 && shape.n > 0 && shape.k > 0,
                  "degenerate tile " << shape.m << "x" << shape.n << "x"
                                     << shape.k);
  const std::uint64_t p_rows = config.rows;
  const std::uint64_t p_cols = config.cols;

  SaTiming t;
  t.k_blocks = util::ceil_div(shape.k, p_rows);
  t.n_blocks = util::ceil_div(shape.n, p_cols);
  t.passes = t.k_blocks * t.n_blocks;
  t.slots_per_pass = util::ceil_div(shape.m, ways);

  // RAW hazard through the C buffer: pass q reads the C values written by
  // pass q - n_blocks (same N block, previous K block). The write for slot j
  // exits the bottom p_rows cycles after the read wavefront enters, so the
  // dependent pass must start at least p_rows slots later:
  //   n_blocks * slots >= p_rows.
  if (t.k_blocks > 1 && t.n_blocks * t.slots_per_pass < p_rows) {
    t.slots_per_pass = util::ceil_div(p_rows, t.n_blocks);
  }

  // Last slot enters array row p_rows-1 at (passes*slots - 1) + (p_rows - 1);
  // its partial sum then needs one more cycle at the bottom PE of the last
  // column, which it reaches after p_cols - 1 lateral steps of the psum
  // wavefront: stream = passes*slots + (p_rows - 1) + (p_cols - 1).
  t.stream_cycles =
      t.passes * t.slots_per_pass + (p_rows - 1) + (p_cols - 1);

  // Stationary-operand load: with double-buffered B registers only the
  // initial block load (p_rows cycles) is exposed; otherwise every pass
  // serializes a p_rows-cycle preload.
  const sim::Cycles preload =
      config.double_buffered_b ? p_rows : t.passes * p_rows;
  t.total_cycles = t.stream_cycles + preload;

  const double capacity = static_cast<double>(t.total_cycles) *
                          static_cast<double>(p_rows * p_cols * ways);
  t.utilization = static_cast<double>(shape.macs()) / capacity;
  return t;
}

}  // namespace maco::sa

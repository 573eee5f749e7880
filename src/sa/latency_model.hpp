// Closed-form timing of the systolic array, exactly matching the
// register-level simulation in systolic_array.cpp (asserted by tests).
//
// Used by the system timing model where register-level simulation of
// paper-scale matrices (up to 9216²) would be intractable.
#pragma once

#include <cstdint>

#include "sa/types.hpp"
#include "sim/time.hpp"

namespace maco::sa {

struct SaConfig;  // defined in systolic_array.hpp

struct TileShape {
  std::uint64_t m = 0;  // rows of A / C
  std::uint64_t n = 0;  // cols of B / C
  std::uint64_t k = 0;  // cols of A / rows of B

  std::uint64_t flops() const noexcept { return 2 * m * n * k; }
  std::uint64_t macs() const noexcept { return m * n * k; }
};

struct SaTiming {
  std::uint64_t k_blocks = 0;       // ceil(k / p_rows)
  std::uint64_t n_blocks = 0;       // ceil(n / p_cols)
  std::uint64_t passes = 0;         // k_blocks * n_blocks
  std::uint64_t slots_per_pass = 0; // ceil(m / ways), hazard-padded
  sim::Cycles stream_cycles = 0;    // cycles with data in flight
  sim::Cycles total_cycles = 0;     // including B preload policy
  double utilization = 0.0;         // useful MACs / PE-cycles
};

// `config` is read for rows/cols/precision/double_buffered_b; each PE
// does simd_ways(config.precision) MACs per cycle.
SaTiming compute_sa_timing(const TileShape& shape, const SaConfig& config);
// The same with `ways` MACs per PE per cycle (the Fig. 8 PE-count
// normalization sets 1).
SaTiming compute_sa_timing(const TileShape& shape, const SaConfig& config,
                           unsigned ways);

}  // namespace maco::sa

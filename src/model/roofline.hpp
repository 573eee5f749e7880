// Roofline helper used by the CPU-only baseline.
#pragma once

#include <cstdint>

namespace maco::model {

// Arithmetic intensity of a cache-blocked GEMM: 2·m·n·k FLOPs over the
// traffic a (bm × bn) block schedule generates beyond the blocking cache.
inline double gemm_arithmetic_intensity(std::uint64_t m, std::uint64_t n,
                                        std::uint64_t k, std::uint64_t bm,
                                        std::uint64_t bn,
                                        unsigned elem_bytes) noexcept {
  // Per C block (bm×bn): A panel bm×k + B panel k×bn + C in/out.
  const double blocks =
      (static_cast<double>(m) / bm) * (static_cast<double>(n) / bn);
  const double traffic =
      blocks * (static_cast<double>(bm) * k + static_cast<double>(k) * bn +
                2.0 * bm * bn) *
      elem_bytes;
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  return flops / traffic;
}

}  // namespace maco::model

// Cycle-accurate input-stationary systolic array (paper Fig. 1 / Fig. 2).
//
// Geometry: array row index = K dimension, array column index = N dimension.
// A p×p block of B is stationary (B[k][n] in PE[k][n]). A values stream
// left-to-right along array rows; partial sums flow top-to-bottom along
// array columns, entering as the current C value and exiting as the updated
// C value. A tile GEMM iterates B blocks in the paper's order (k-outer,
// n-inner), streaming the full A block column through the array per pass
// while C circulates through the on-chip buffer.
//
// The register-level simulation is exact in both function and cycle count;
// `latency_model.hpp` provides the matching closed form used at system
// scale, and tests assert the two agree.
//
// Two functional paths compute the identical result:
//  - exact_pe_sim=true simulates every PE register every cycle (the
//    reference the tests compare against);
//  - exact_pe_sim=false (default) replays the same floating-point
//    accumulation order directly — ascending k within each k-block, padded
//    +0.0 products included — so C is bit-identical while the per-cycle
//    register machinery is skipped. Cycle counts come from the closed form
//    either way. tests/test_equivalence.cpp pins the bit-equality.
#pragma once

#include <cstdint>

#include "sa/host_matrix.hpp"
#include "sa/types.hpp"
#include "sim/time.hpp"

namespace maco::sa {

struct SaTiming;  // latency_model.hpp

struct SaConfig {
  unsigned rows = 4;  // p: array height (K direction)
  unsigned cols = 4;  // p: array width (N direction)
  Precision precision = Precision::kFp64;
  // Double-buffered stationary registers let the next B block preload during
  // the current pass; without them each pass pays a `rows`-cycle preload.
  bool double_buffered_b = true;
  // Simulate every PE register every cycle instead of the order-preserving
  // direct evaluation. Same bits, ~25× slower; only tests set this.
  bool exact_pe_sim = false;
};

struct SaRunResult {
  sim::Cycles cycles = 0;
  std::uint64_t macs = 0;        // useful multiply-accumulates performed
  std::uint64_t passes = 0;      // B-block passes executed
  double utilization = 0.0;      // macs / (cycles * rows * cols * ways)
};

class SystolicArray {
 public:
  explicit SystolicArray(const SaConfig& config);

  const SaConfig& config() const noexcept { return config_; }

  // C += A * B with functional results written into `c`.
  // Shapes: a is m×k, b is k×n, c is m×n; none need divide the array size.
  SaRunResult run(const HostMatrix& a, const HostMatrix& b, HostMatrix& c);

 private:
  // Register-level reference: every PE pipeline register, every cycle.
  void run_exact(const HostMatrix& a, const HostMatrix& b, HostMatrix& c,
                 const SaTiming& timing) const;
  // Direct evaluation in the array's exact accumulation order.
  void run_fast(const HostMatrix& a, const HostMatrix& b, HostMatrix& c,
                const SaTiming& timing) const;

  SaConfig config_;
};

}  // namespace maco::sa

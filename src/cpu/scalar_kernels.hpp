// CPU-side kernel cost models.
//
// The CPU core (Table I: 4-issue OoO, 2×256-bit vector FMA pipes -> 8 FP64
// FMACs, Table IV: 35.2 GFLOPS FP64 / 71 GFLOPS FP32 peak) executes the
// non-GEMM parts of GEMM+ workloads (softmax, layernorm, activations) and,
// in Baseline-1, the GEMM itself. These are analytic cycle models: work is
// decomposed into vector flops, loads/stores and special-function ops, each
// bounded by the corresponding issue resource.
//
// The GEMM software efficiency constant sets Baseline-1's GEMM rate; with
// it, MACO runs the builtin ResNet-50, BERT and GPT-3 manifests 3.16×,
// 3.84× and 3.79× faster than the CPU alone (tests/golden/baselines.csv).
// Everything else follows from first-principles resource counts.
#pragma once

#include <cstdint>

#include "sa/types.hpp"
#include "sim/time.hpp"

namespace maco::cpu {

struct CpuKernelModel {
  double frequency_hz = 2.2e9;    // the core clock (Table IV)
  unsigned fp64_fmacs = 8;        // per cycle; FP32 doubles, FP16 quadruples
  unsigned vector_lanes_fp64 = 8; // element-wise ops per cycle
  unsigned load_bytes_per_cycle = 64;   // 2×256-bit load ports
  unsigned store_bytes_per_cycle = 32;  // 1×256-bit store port
  // Sustained fraction of peak for compiled (non-hand-tuned) GEMM kernels,
  // including register-blocking and cache-blocking losses.
  double gemm_software_efficiency = 0.30;
  // Special-function (exp, tanh, sqrt) throughput, elements per cycle.
  double special_func_per_cycle = 2.0;

  unsigned macs_per_cycle(sa::Precision p) const noexcept {
    return fp64_fmacs * sa::simd_ways(p);
  }
  double peak_flops(sa::Precision p) const noexcept {
    return 2.0 * frequency_hz * macs_per_cycle(p);
  }

  // Software GEMM: C (m×n) += A (m×k) B (k×n).
  sim::Cycles gemm_cycles(std::uint64_t m, std::uint64_t n, std::uint64_t k,
                          sa::Precision p) const noexcept;

  // Row-wise softmax over a rows×cols matrix (max, exp, sum, scale).
  sim::Cycles softmax_cycles(std::uint64_t rows, std::uint64_t cols,
                             sa::Precision p) const noexcept;

  // LayerNorm over rows of length cols (mean, variance, normalize, affine).
  sim::Cycles layernorm_cycles(std::uint64_t rows, std::uint64_t cols,
                               sa::Precision p) const noexcept;

  // Element-wise activations.
  sim::Cycles gelu_cycles(std::uint64_t elements,
                          sa::Precision p) const noexcept;
  sim::Cycles relu_cycles(std::uint64_t elements,
                          sa::Precision p) const noexcept;
  sim::Cycles bias_add_cycles(std::uint64_t elements,
                              sa::Precision p) const noexcept;

  // Embedding-table gather: `lookups` rows of `dim` elements (the
  // recommender-system scenario from the paper's introduction).
  sim::Cycles embedding_lookup_cycles(std::uint64_t lookups,
                                      std::uint64_t dim,
                                      sa::Precision p) const noexcept;

  sim::TimePs cycles_to_ps(sim::Cycles cycles) const noexcept {
    return static_cast<sim::TimePs>(
        static_cast<double>(cycles) * 1e12 / frequency_hz);
  }
};

}  // namespace maco::cpu

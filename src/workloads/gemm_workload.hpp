// Workload descriptions: sequences of GEMM layers with their trailing
// non-GEMM operations (the "GEMM+" structure of Section IV.B).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sa/latency_model.hpp"
#include "sa/types.hpp"

namespace maco::wl {

// Non-GEMM work following a layer (executed by the CPU cores).
enum class PostOp : std::uint8_t {
  kNone,
  kBiasAdd,
  kRelu,
  kGelu,
  kSoftmax,    // rows × cols of the GEMM output
  kLayerNorm,
};

const char* post_op_name(PostOp op) noexcept;

struct Layer {
  std::string name;
  sa::TileShape shape;  // C (m×n) = A (m×k) × B (k×n)
  PostOp post = PostOp::kNone;
  unsigned repeat = 1;  // identical layers (e.g. transformer blocks)

  std::uint64_t flops() const noexcept { return shape.flops() * repeat; }
};

struct Workload {
  std::string name;
  sa::Precision precision = sa::Precision::kFp32;
  std::vector<Layer> layers;

  std::uint64_t total_flops() const noexcept;
  std::uint64_t total_macs() const noexcept;
  // Layers expanded by their repeat counts (shapes only).
  std::vector<sa::TileShape> expanded_shapes() const;
};

}  // namespace maco::wl

#include "workloads/gemm_workload.hpp"

namespace maco::wl {

const char* post_op_name(PostOp op) noexcept {
  switch (op) {
    case PostOp::kNone: return "none";
    case PostOp::kBiasAdd: return "bias_add";
    case PostOp::kRelu: return "relu";
    case PostOp::kGelu: return "gelu";
    case PostOp::kSoftmax: return "softmax";
    case PostOp::kLayerNorm: return "layernorm";
  }
  return "?";
}

std::uint64_t Workload::total_flops() const noexcept {
  std::uint64_t total = 0;
  for (const auto& layer : layers) total += layer.flops();
  return total;
}

std::uint64_t Workload::total_macs() const noexcept {
  return total_flops() / 2;
}

std::vector<sa::TileShape> Workload::expanded_shapes() const {
  std::vector<sa::TileShape> shapes;
  for (const auto& layer : layers) {
    for (unsigned r = 0; r < layer.repeat; ++r) shapes.push_back(layer.shape);
  }
  return shapes;
}

}  // namespace maco::wl

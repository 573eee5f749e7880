// Model-graph frontend: JSON manifests describing a DNN as typed ops over
// named tensors.
//
// A manifest is the user-facing workload format (docs/GRAPHS.md): it
// declares tensors (shapes may use the symbolic dims "batch", "seq" and
// "tokens", resolved at lowering time) and ops (gemm / linear / conv2d /
// attention / moe / elementwise / norm) wired by tensor names. Parsing
// validates the whole document with typed diagnostics — unknown op kinds,
// bad dtypes, dangling edges, duplicate producers, per-kind shape
// mismatches and cycles all fail with a message naming the offending
// op/tensor. Lowering (graph/lowering.hpp) resolves the symbolic dims,
// checks every dim product for 64-bit overflow, and produces the GEMM+
// layer lists every fidelity rung consumes; `macosim graph validate` runs
// both, so a manifest it accepts lowers at its defaults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sa/types.hpp"
#include "workloads/gemm_workload.hpp"

namespace maco::graph {

// Every manifest validation or lowering failure; the message names the
// op/tensor (and, through load_model_graph, the file) at fault.
class GraphError : public std::runtime_error {
 public:
  explicit GraphError(const std::string& what) : std::runtime_error(what) {}
};

enum class OpKind : std::uint8_t {
  kGemm,         // explicit C[m,n] = A[m,k] x B[k,n]
  kLinear,       // token-major fully-connected: [t,in] -> [t,out]
  kConv2d,       // im2col GEMM: M=out_ch, N=batch*oh*ow, K=in_ch*k^2
  kAttention,    // QKV + scores + context + projection GEMMs
  kMoe,          // router + top-k per-expert FFN GEMMs with multiplicity
  kElementwise,  // scalar kernel fused into the producing GEMM's post-op
  kNorm,         // normalization fused the same way
};

const char* op_kind_name(OpKind kind) noexcept;
// Throws GraphError listing the legal spellings.
OpKind parse_op_kind(const std::string& name);

// A tensor dim: a literal extent or one of the symbols resolved by the
// lowering options ("batch", "seq", and "tokens" = batch*seq_len in
// prefill / batch in decode).
enum class DimSymbol : std::uint8_t { kLiteral, kBatch, kSeq, kTokens };

struct Dim {
  DimSymbol symbol = DimSymbol::kLiteral;
  std::uint64_t value = 0;  // kLiteral only

  bool operator==(const Dim& other) const noexcept {
    return symbol == other.symbol &&
           (symbol != DimSymbol::kLiteral || value == other.value);
  }
  bool operator!=(const Dim& other) const noexcept {
    return !(*this == other);
  }
  std::string to_string() const;  // "512", "batch", "seq", "tokens"
};

struct TensorDecl {
  std::string name;
  std::vector<Dim> dims;
  sa::Precision dtype = sa::Precision::kFp32;
};

// Typed per-op attributes; which keys are legal depends on the kind (the
// parser rejects inapplicable or unknown keys naming the op).
struct OpAttrs {
  std::uint64_t out_features = 0;  // linear (required)
  std::uint64_t out_channels = 0;  // conv2d (required)
  std::uint64_t kernel = 1;        // conv2d
  std::uint64_t heads = 1;         // attention (required)
  std::uint64_t experts = 0;       // moe (required)
  std::uint64_t ffn = 0;           // moe expert FFN width (required)
  std::uint64_t top_k = 0;         // moe; 0 = scenario knob / default 2
  // gemm/linear/conv2d: trailing scalar work fused into the layer.
  wl::PostOp post = wl::PostOp::kNone;
  // elementwise/norm: the function fused into the producer GEMM
  // (elementwise defaults to relu, norm to layernorm).
  wl::PostOp fn = wl::PostOp::kNone;
};

struct OpDecl {
  std::string name;
  OpKind kind = OpKind::kLinear;
  std::vector<std::string> inputs;   // consumed tensor names
  std::vector<std::string> outputs;  // produced tensor names
  OpAttrs attrs;
  unsigned repeat = 1;  // identical instances, lowered as Layer::repeat
};

struct ModelGraph {
  std::string name;
  sa::Precision precision = sa::Precision::kFp32;
  std::uint64_t default_batch = 1;
  std::uint64_t default_seq_len = 1;
  std::vector<TensorDecl> tensors;
  std::vector<OpDecl> ops;  // manifest order (lowering reorders topologically)

  static constexpr std::size_t kNoProducer = static_cast<std::size_t>(-1);

  // nullptr when no tensor has that name.
  const TensorDecl* find_tensor(std::string_view name) const noexcept;
  // Index of the op producing `name`, or kNoProducer (a graph input).
  std::size_t producer_of(std::string_view name) const noexcept;
};

// "fp64"/"fp32"/"fp16" -> precision; throws GraphError on anything else.
sa::Precision parse_dtype(const std::string& name);
const char* dtype_name(sa::Precision precision) noexcept;

// Parses and fully validates one manifest document. Throws GraphError on
// malformed JSON or any schema/graph violation.
ModelGraph parse_model_graph(std::string_view json_text);

// read_text_file + parse_model_graph; every diagnostic names `path`.
ModelGraph load_model_graph(const std::string& path);

}  // namespace maco::graph

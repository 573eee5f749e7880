#include "graph/model_graph.hpp"

#include <cmath>
#include <initializer_list>
#include <limits>

#include "graph/scheduler.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace maco::graph {

namespace {

[[noreturn]] void fail(const std::string& what) { throw GraphError(what); }

// ---- small typed readers over util::JsonValue ----

const util::JsonValue& member(const util::JsonValue& object,
                              std::string_view key,
                              const std::string& context) {
  const util::JsonValue* value = object.find(key);
  if (value == nullptr) {
    fail(context + ": missing required key '" + std::string(key) + "'");
  }
  return *value;
}

std::string string_field(const util::JsonValue& value,
                         const std::string& context) {
  if (!value.is_string()) fail(context + ": expected a string");
  return value.as_string();
}

std::uint64_t u64_field(const util::JsonValue& value,
                        const std::string& context, std::uint64_t min = 0) {
  if (!value.is_number()) fail(context + ": expected an integer");
  const double number = value.as_number();
  const double rounded = std::floor(number);
  if (rounded != number || number < 0.0 || number > 1e15) {
    fail(context + ": expected a non-negative integer, got " +
         std::to_string(number));
  }
  const auto result = static_cast<std::uint64_t>(rounded);
  if (result < min) {
    fail(context + ": must be >= " + std::to_string(min));
  }
  return result;
}

void reject_unknown_keys(const util::JsonValue& object,
                         std::initializer_list<std::string_view> known,
                         const std::string& context) {
  for (const auto& [key, value] : object.as_object()) {
    (void)value;
    bool ok = false;
    for (const std::string_view k : known) ok = ok || key == k;
    if (!ok) fail(context + ": unknown key '" + key + "'");
  }
}

wl::PostOp parse_post_op(const std::string& name,
                         const std::string& context) {
  if (name == "none") return wl::PostOp::kNone;
  if (name == "bias_add") return wl::PostOp::kBiasAdd;
  if (name == "relu") return wl::PostOp::kRelu;
  if (name == "gelu") return wl::PostOp::kGelu;
  if (name == "softmax") return wl::PostOp::kSoftmax;
  if (name == "layernorm") return wl::PostOp::kLayerNorm;
  fail(context + ": unknown post-op '" + name +
       "' (want none|bias_add|relu|gelu|softmax|layernorm)");
}

Dim parse_dim(const util::JsonValue& value, const std::string& context) {
  Dim dim;
  if (value.is_number()) {
    dim.symbol = DimSymbol::kLiteral;
    dim.value = u64_field(value, context, 1);
    return dim;
  }
  if (value.is_string()) {
    const std::string& name = value.as_string();
    if (name == "batch") {
      dim.symbol = DimSymbol::kBatch;
    } else if (name == "seq") {
      dim.symbol = DimSymbol::kSeq;
    } else if (name == "tokens") {
      dim.symbol = DimSymbol::kTokens;
    } else {
      fail(context + ": unknown dim symbol '" + name +
           "' (want batch|seq|tokens or a positive integer)");
    }
    return dim;
  }
  fail(context + ": a dim is an integer or one of batch|seq|tokens");
}

// ---- op attribute extraction (typed, per-kind key allow-lists) ----

struct AttrSpec {
  std::vector<std::string_view> allowed;
  std::vector<std::string_view> required;
};

AttrSpec attr_spec(OpKind kind) {
  switch (kind) {
    case OpKind::kGemm: return {{"post"}, {}};
    case OpKind::kLinear: return {{"out_features", "post"}, {"out_features"}};
    case OpKind::kConv2d:
      return {{"out_channels", "kernel", "post"}, {"out_channels"}};
    case OpKind::kAttention: return {{"heads"}, {"heads"}};
    case OpKind::kMoe: return {{"experts", "ffn", "top_k"}, {"experts", "ffn"}};
    case OpKind::kElementwise:
    case OpKind::kNorm: return {{"fn"}, {}};
  }
  return {{}, {}};
}

OpAttrs parse_attrs(const util::JsonValue* attrs, OpKind kind,
                    const std::string& context) {
  OpAttrs result;
  // Fused scalar kernels default to their namesake function.
  result.fn = kind == OpKind::kNorm ? wl::PostOp::kLayerNorm
                                    : wl::PostOp::kRelu;
  const AttrSpec spec = attr_spec(kind);
  if (attrs != nullptr) {
    if (!attrs->is_object()) fail(context + ": attrs must be an object");
    for (const auto& [key, value] : attrs->as_object()) {
      bool allowed = false;
      for (const std::string_view k : spec.allowed) {
        allowed = allowed || key == k;
      }
      if (!allowed) {
        std::string legal;
        for (const std::string_view k : spec.allowed) {
          if (!legal.empty()) legal += "|";
          legal += std::string(k);
        }
        fail(context + ": attr '" + key + "' does not apply to kind '" +
             op_kind_name(kind) + "'" +
             (legal.empty() ? " (no attrs accepted)" : " (want " + legal +
                                                           ")"));
      }
      const std::string attr_context = context + ": attr '" + key + "'";
      if (key == "out_features") {
        result.out_features = u64_field(value, attr_context, 1);
      } else if (key == "out_channels") {
        result.out_channels = u64_field(value, attr_context, 1);
      } else if (key == "kernel") {
        result.kernel = u64_field(value, attr_context, 1);
      } else if (key == "heads") {
        result.heads = u64_field(value, attr_context, 1);
      } else if (key == "experts") {
        result.experts = u64_field(value, attr_context, 1);
      } else if (key == "ffn") {
        result.ffn = u64_field(value, attr_context, 1);
      } else if (key == "top_k") {
        result.top_k = u64_field(value, attr_context, 1);
      } else if (key == "post") {
        result.post =
            parse_post_op(string_field(value, attr_context), attr_context);
      } else if (key == "fn") {
        result.fn =
            parse_post_op(string_field(value, attr_context), attr_context);
      }
    }
  }
  for (const std::string_view k : spec.required) {
    if (attrs == nullptr || attrs->find(k) == nullptr) {
      fail(context + ": kind '" + std::string(op_kind_name(kind)) +
           "' requires attr '" + std::string(k) + "'");
    }
  }
  if (kind == OpKind::kMoe && result.top_k != 0 &&
      result.top_k > result.experts) {
    fail(context + ": top_k " + std::to_string(result.top_k) +
         " exceeds experts " + std::to_string(result.experts));
  }
  return result;
}

// ---- per-kind edge-count and shape validation ----

std::string dims_text(const std::vector<Dim>& dims) {
  std::string text = "[";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) text += ",";
    text += dims[i].to_string();
  }
  return text + "]";
}

void require_io_counts(const OpDecl& op, std::size_t inputs,
                       std::size_t outputs, const std::string& context) {
  if (op.inputs.size() != inputs || op.outputs.size() != outputs) {
    fail(context + ": kind '" + std::string(op_kind_name(op.kind)) +
         "' takes " + std::to_string(inputs) + " input(s) and " +
         std::to_string(outputs) + " output(s), got " +
         std::to_string(op.inputs.size()) + "/" +
         std::to_string(op.outputs.size()));
  }
}

void require_rank(const TensorDecl& tensor, std::size_t rank,
                  const std::string& context) {
  if (tensor.dims.size() != rank) {
    fail(context + ": tensor '" + tensor.name + "' must have rank " +
         std::to_string(rank) + ", got " + dims_text(tensor.dims));
  }
}

void require_literal(const TensorDecl& tensor, std::size_t index,
                     const std::string& context) {
  if (tensor.dims[index].symbol != DimSymbol::kLiteral) {
    fail(context + ": tensor '" + tensor.name + "' dim " +
         std::to_string(index) + " must be a literal, got '" +
         tensor.dims[index].to_string() + "'");
  }
}

[[noreturn]] void shape_mismatch(const std::string& context,
                                 const std::string& detail) {
  fail(context + ": shape mismatch: " + detail);
}

void check_op_shapes(const ModelGraph& graph, const OpDecl& op) {
  const std::string context = "op '" + op.name + "'";
  const auto tensor = [&](const std::string& name) -> const TensorDecl& {
    const TensorDecl* t = graph.find_tensor(name);
    if (t == nullptr) {
      // Unreachable: edges were resolved before shape checks.
      fail(context + ": undeclared tensor '" + name + "'");
    }
    return *t;
  };
  switch (op.kind) {
    case OpKind::kGemm: {
      require_io_counts(op, 2, 1, context);
      const TensorDecl& a = tensor(op.inputs[0]);
      const TensorDecl& b = tensor(op.inputs[1]);
      const TensorDecl& c = tensor(op.outputs[0]);
      require_rank(a, 2, context);
      require_rank(b, 2, context);
      require_rank(c, 2, context);
      if (a.dims[1] != b.dims[0]) {
        shape_mismatch(context, "A " + dims_text(a.dims) +
                                    " inner dim != B " + dims_text(b.dims));
      }
      if (c.dims[0] != a.dims[0] || c.dims[1] != b.dims[1]) {
        shape_mismatch(context, "C " + dims_text(c.dims) + " != A x B " +
                                    dims_text(a.dims) + " x " +
                                    dims_text(b.dims));
      }
      break;
    }
    case OpKind::kLinear: {
      require_io_counts(op, 1, 1, context);
      const TensorDecl& in = tensor(op.inputs[0]);
      const TensorDecl& out = tensor(op.outputs[0]);
      require_rank(in, 2, context);
      require_rank(out, 2, context);
      require_literal(in, 1, context);
      require_literal(out, 1, context);
      if (out.dims[0] != in.dims[0]) {
        shape_mismatch(context, "output " + dims_text(out.dims) +
                                    " token dim != input " +
                                    dims_text(in.dims));
      }
      if (out.dims[1].value != op.attrs.out_features) {
        shape_mismatch(context,
                       "output features " + out.dims[1].to_string() +
                           " != out_features " +
                           std::to_string(op.attrs.out_features));
      }
      break;
    }
    case OpKind::kConv2d: {
      require_io_counts(op, 1, 1, context);
      const TensorDecl& in = tensor(op.inputs[0]);
      const TensorDecl& out = tensor(op.outputs[0]);
      require_rank(in, 3, context);   // [channels, h, w]
      require_rank(out, 3, context);  // [channels, oh, ow]
      for (std::size_t i = 0; i < 3; ++i) {
        require_literal(in, i, context);
        require_literal(out, i, context);
      }
      if (out.dims[0].value != op.attrs.out_channels) {
        shape_mismatch(context,
                       "output channels " + out.dims[0].to_string() +
                           " != out_channels " +
                           std::to_string(op.attrs.out_channels));
      }
      break;
    }
    case OpKind::kAttention: {
      require_io_counts(op, 1, 1, context);
      const TensorDecl& in = tensor(op.inputs[0]);
      const TensorDecl& out = tensor(op.outputs[0]);
      require_rank(in, 2, context);  // [tokens, hidden]
      require_rank(out, 2, context);
      require_literal(in, 1, context);
      if (in.dims != out.dims) {
        shape_mismatch(context, "output " + dims_text(out.dims) +
                                    " != input " + dims_text(in.dims) +
                                    " (attention preserves shape)");
      }
      const std::uint64_t hidden = in.dims[1].value;
      if (op.attrs.heads == 0 || hidden % op.attrs.heads != 0) {
        fail(context + ": heads " + std::to_string(op.attrs.heads) +
             " must divide hidden " + std::to_string(hidden));
      }
      break;
    }
    case OpKind::kMoe: {
      require_io_counts(op, 1, 1, context);
      const TensorDecl& in = tensor(op.inputs[0]);
      const TensorDecl& out = tensor(op.outputs[0]);
      require_rank(in, 2, context);  // [tokens, hidden]
      require_rank(out, 2, context);
      require_literal(in, 1, context);
      if (in.dims != out.dims) {
        shape_mismatch(context, "output " + dims_text(out.dims) +
                                    " != input " + dims_text(in.dims) +
                                    " (moe preserves shape)");
      }
      break;
    }
    case OpKind::kElementwise:
    case OpKind::kNorm: {
      require_io_counts(op, 1, 1, context);
      const TensorDecl& in = tensor(op.inputs[0]);
      const TensorDecl& out = tensor(op.outputs[0]);
      if (in.dims != out.dims) {
        shape_mismatch(context, "output " + dims_text(out.dims) +
                                    " != input " + dims_text(in.dims) +
                                    " (elementwise/norm preserve shape)");
      }
      break;
    }
  }
}

}  // namespace

const char* op_kind_name(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kGemm: return "gemm";
    case OpKind::kLinear: return "linear";
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kAttention: return "attention";
    case OpKind::kMoe: return "moe";
    case OpKind::kElementwise: return "elementwise";
    case OpKind::kNorm: return "norm";
  }
  return "?";
}

OpKind parse_op_kind(const std::string& name) {
  if (name == "gemm") return OpKind::kGemm;
  if (name == "linear") return OpKind::kLinear;
  if (name == "conv2d") return OpKind::kConv2d;
  if (name == "attention") return OpKind::kAttention;
  if (name == "moe") return OpKind::kMoe;
  if (name == "elementwise") return OpKind::kElementwise;
  if (name == "norm") return OpKind::kNorm;
  fail("unknown op kind '" + name +
       "' (want gemm|linear|conv2d|attention|moe|elementwise|norm)");
}

std::string Dim::to_string() const {
  switch (symbol) {
    case DimSymbol::kLiteral: return std::to_string(value);
    case DimSymbol::kBatch: return "batch";
    case DimSymbol::kSeq: return "seq";
    case DimSymbol::kTokens: return "tokens";
  }
  return "?";
}

const TensorDecl* ModelGraph::find_tensor(
    std::string_view name) const noexcept {
  for (const TensorDecl& tensor : tensors) {
    if (tensor.name == name) return &tensor;
  }
  return nullptr;
}

std::size_t ModelGraph::producer_of(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const std::string& output : ops[i].outputs) {
      if (output == name) return i;
    }
  }
  return kNoProducer;
}

sa::Precision parse_dtype(const std::string& name) {
  if (name == "fp64") return sa::Precision::kFp64;
  if (name == "fp32") return sa::Precision::kFp32;
  if (name == "fp16") return sa::Precision::kFp16;
  fail("bad dtype '" + name + "' (want fp64|fp32|fp16)");
}

const char* dtype_name(sa::Precision precision) noexcept {
  switch (precision) {
    case sa::Precision::kFp64: return "fp64";
    case sa::Precision::kFp32: return "fp32";
    case sa::Precision::kFp16: return "fp16";
  }
  return "?";
}

ModelGraph parse_model_graph(std::string_view json_text) {
  util::JsonValue document;
  try {
    document = util::parse_json(json_text);
  } catch (const std::exception& error) {
    fail(std::string("manifest is not valid JSON: ") + error.what());
  }
  if (!document.is_object()) fail("manifest root must be a JSON object");
  reject_unknown_keys(document,
                      {"model", "precision", "defaults", "tensors", "ops"},
                      "manifest");

  ModelGraph graph;
  graph.name = string_field(member(document, "model", "manifest"),
                            "manifest 'model'");
  if (graph.name.empty()) fail("manifest 'model' must not be empty");
  if (const util::JsonValue* precision = document.find("precision")) {
    graph.precision =
        parse_dtype(string_field(*precision, "manifest 'precision'"));
  }
  if (const util::JsonValue* defaults = document.find("defaults")) {
    if (!defaults->is_object()) fail("manifest 'defaults' must be an object");
    reject_unknown_keys(*defaults, {"batch", "seq_len"},
                        "manifest 'defaults'");
    if (const util::JsonValue* batch = defaults->find("batch")) {
      graph.default_batch = u64_field(*batch, "defaults 'batch'", 1);
    }
    if (const util::JsonValue* seq = defaults->find("seq_len")) {
      graph.default_seq_len = u64_field(*seq, "defaults 'seq_len'", 1);
    }
  }

  // ---- tensors ----
  const util::JsonValue& tensors = member(document, "tensors", "manifest");
  if (!tensors.is_array() || tensors.as_array().empty()) {
    fail("manifest 'tensors' must be a non-empty array");
  }
  for (const util::JsonValue& entry : tensors.as_array()) {
    if (!entry.is_object()) fail("each tensor must be an object");
    TensorDecl tensor;
    tensor.name = string_field(member(entry, "name", "tensor"),
                               "tensor 'name'");
    const std::string context = "tensor '" + tensor.name + "'";
    reject_unknown_keys(entry, {"name", "dims", "dtype"}, context);
    if (graph.find_tensor(tensor.name) != nullptr) {
      fail("duplicate tensor name '" + tensor.name + "'");
    }
    const util::JsonValue& dims = member(entry, "dims", context);
    if (!dims.is_array() || dims.as_array().empty()) {
      fail(context + ": 'dims' must be a non-empty array");
    }
    for (const util::JsonValue& dim : dims.as_array()) {
      tensor.dims.push_back(parse_dim(dim, context));
    }
    tensor.dtype = graph.precision;
    if (const util::JsonValue* dtype = entry.find("dtype")) {
      tensor.dtype = parse_dtype(string_field(*dtype, context + " 'dtype'"));
      if (tensor.dtype != graph.precision) {
        fail(context + ": dtype " + dtype_name(tensor.dtype) +
             " differs from model precision " + dtype_name(graph.precision) +
             " (mixed precision is not supported)");
      }
    }
    graph.tensors.push_back(std::move(tensor));
  }

  // ---- ops ----
  const util::JsonValue& ops = member(document, "ops", "manifest");
  if (!ops.is_array() || ops.as_array().empty()) {
    fail("manifest 'ops' must be a non-empty array");
  }
  for (const util::JsonValue& entry : ops.as_array()) {
    if (!entry.is_object()) fail("each op must be an object");
    OpDecl op;
    op.name = string_field(member(entry, "name", "op"), "op 'name'");
    const std::string context = "op '" + op.name + "'";
    reject_unknown_keys(
        entry, {"name", "kind", "inputs", "outputs", "attrs", "repeat"},
        context);
    for (const OpDecl& existing : graph.ops) {
      if (existing.name == op.name) {
        fail("duplicate op name '" + op.name + "'");
      }
    }
    op.kind = parse_op_kind(
        string_field(member(entry, "kind", context), context + " 'kind'"));
    const auto names = [&](const util::JsonValue& value,
                           const char* key) {
      std::vector<std::string> result;
      if (!value.is_array()) {
        fail(context + ": '" + key + "' must be an array of tensor names");
      }
      for (const util::JsonValue& name : value.as_array()) {
        result.push_back(
            string_field(name, context + " '" + key + "' entry"));
      }
      return result;
    };
    op.inputs = names(member(entry, "inputs", context), "inputs");
    op.outputs = names(member(entry, "outputs", context), "outputs");
    if (const util::JsonValue* repeat = entry.find("repeat")) {
      const std::uint64_t count =
          u64_field(*repeat, context + " 'repeat'", 1);
      if (count > std::numeric_limits<unsigned>::max()) {
        fail(context + " 'repeat': must be <= " +
             std::to_string(std::numeric_limits<unsigned>::max()));
      }
      op.repeat = static_cast<unsigned>(count);
    }
    op.attrs = parse_attrs(entry.find("attrs"), op.kind, context);
    graph.ops.push_back(std::move(op));
  }

  // ---- edges: every referenced tensor declared, one producer each ----
  for (const OpDecl& op : graph.ops) {
    const std::string context = "op '" + op.name + "'";
    for (const std::string& input : op.inputs) {
      if (graph.find_tensor(input) == nullptr) {
        fail(context + ": dangling edge: input tensor '" + input +
             "' is not declared");
      }
    }
    for (const std::string& output : op.outputs) {
      if (graph.find_tensor(output) == nullptr) {
        fail(context + ": dangling edge: output tensor '" + output +
             "' is not declared");
      }
    }
  }
  for (const TensorDecl& tensor : graph.tensors) {
    std::size_t producers = 0;
    for (const OpDecl& op : graph.ops) {
      for (const std::string& output : op.outputs) {
        if (output == tensor.name) ++producers;
      }
    }
    if (producers > 1) {
      fail("tensor '" + tensor.name + "' has " + std::to_string(producers) +
           " producers (exactly one op may write a tensor)");
    }
  }

  // ---- per-kind shape rules, then acyclicity ----
  for (const OpDecl& op : graph.ops) check_op_shapes(graph, op);
  (void)topological_order(graph);  // throws GraphError naming a cycle

  return graph;
}

ModelGraph load_model_graph(const std::string& path) {
  const std::string text = util::read_text_file(path);
  try {
    return parse_model_graph(text);
  } catch (const GraphError& error) {
    fail(path + ": " + error.what());
  }
}

}  // namespace maco::graph

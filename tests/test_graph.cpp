#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "driver/graph_cmd.hpp"
#include "driver/scenario_registry.hpp"
#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"
#include "graph/model_graph.hpp"
#include "graph/scheduler.hpp"
#include "overflow_manifests.hpp"
#include "sampling/tile_space.hpp"
#include "serve/workload.hpp"
#include "util/file.hpp"

namespace maco::graph {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = temp_path(name);
  std::ofstream out(path);
  out << text;
  return path;
}

// Parses `json` expecting a GraphError whose message contains `needle`.
void expect_rejected(const std::string& json, const std::string& needle) {
  try {
    (void)parse_model_graph(json);
    FAIL() << "manifest accepted; expected error containing '" << needle
           << "'";
  } catch (const GraphError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "got '" << error.what() << "', expected to contain '" << needle
        << "'";
  }
}

// A minimal valid two-linear manifest used as the mutation base.
const char* kMlp = R"({
  "model": "mlp", "precision": "fp32",
  "defaults": {"batch": 2, "seq_len": 8},
  "tensors": [
    {"name": "x", "dims": ["tokens", 32]},
    {"name": "h", "dims": ["tokens", 64]},
    {"name": "y", "dims": ["tokens", 32]}
  ],
  "ops": [
    {"name": "fc1", "kind": "linear", "inputs": ["x"], "outputs": ["h"],
     "attrs": {"out_features": 64, "post": "gelu"}},
    {"name": "fc2", "kind": "linear", "inputs": ["h"], "outputs": ["y"],
     "attrs": {"out_features": 32}}
  ]
})";

TEST(ModelGraph, RoundTripsAManifest) {
  const ModelGraph g = parse_model_graph(kMlp);
  EXPECT_EQ(g.name, "mlp");
  EXPECT_EQ(g.precision, sa::Precision::kFp32);
  EXPECT_EQ(g.default_batch, 2u);
  EXPECT_EQ(g.default_seq_len, 8u);
  ASSERT_EQ(g.tensors.size(), 3u);
  ASSERT_EQ(g.ops.size(), 2u);
  EXPECT_EQ(g.tensors[0].dims[0].symbol, DimSymbol::kTokens);
  EXPECT_EQ(g.tensors[0].dims[1].value, 32u);
  EXPECT_EQ(g.ops[0].kind, OpKind::kLinear);
  EXPECT_EQ(g.ops[0].attrs.out_features, 64u);
  EXPECT_EQ(g.ops[0].attrs.post, wl::PostOp::kGelu);
  EXPECT_EQ(g.producer_of("h"), 0u);
  EXPECT_EQ(g.producer_of("x"), ModelGraph::kNoProducer);
  ASSERT_NE(g.find_tensor("y"), nullptr);
  EXPECT_EQ(g.find_tensor("nope"), nullptr);
}

TEST(ModelGraph, RejectsMalformedDocuments) {
  expect_rejected("{", "manifest");
  expect_rejected("[]", "object");
  expect_rejected(R"({"model": "m"})", "tensors");
  // Layer::repeat is 32-bit: a larger count must not truncate silently.
  std::string repeat = kMlp;
  repeat.replace(repeat.find("\"attrs\": {\"out_features\": 32}"), 0,
                 "\"repeat\": 4294967296, ");
  expect_rejected(repeat, "'repeat': must be <= 4294967295");
}

TEST(ModelGraph, RejectsUnknownOpKind) {
  std::string json = kMlp;
  json.replace(json.find("\"linear\""), 8, "\"pooling\"");
  expect_rejected(json, "pooling");
}

TEST(ModelGraph, RejectsBadDtype) {
  std::string json = kMlp;
  json.replace(json.find("\"fp32\""), 6, "\"int4\"");
  expect_rejected(json, "int4");
}

TEST(ModelGraph, RejectsMixedPrecisionTensors) {
  std::string json = kMlp;
  const std::string old = R"({"name": "h", "dims": ["tokens", 64]})";
  json.replace(json.find(old), old.size(),
               R"({"name": "h", "dims": ["tokens", 64], "dtype": "fp16"})");
  expect_rejected(json, "mixed precision");
}

TEST(ModelGraph, RejectsDanglingInputEdge) {
  std::string json = kMlp;
  json.replace(json.find("[\"h\"], \"outputs\": [\"y\"]"), 5,
               "[\"ghost\"]");
  expect_rejected(json, "ghost");
}

TEST(ModelGraph, RejectsDanglingOutputEdge) {
  std::string json = kMlp;
  json.replace(json.find("\"outputs\": [\"y\"]"), 16,
               "\"outputs\": [\"phantom\"]");
  expect_rejected(json, "phantom");
}

TEST(ModelGraph, RejectsTwoProducersOfOneTensor) {
  std::string json = kMlp;
  json.replace(json.find("\"outputs\": [\"y\"]"), 16,
               "\"outputs\": [\"h\"]");
  expect_rejected(json, "producers");
}

TEST(ModelGraph, RejectsDuplicateTensorAndOpNames) {
  std::string dup_tensor = kMlp;
  dup_tensor.replace(dup_tensor.find("\"name\": \"y\""), 11,
                     "\"name\": \"x\"");
  expect_rejected(dup_tensor, "duplicate");
  std::string dup_op = kMlp;
  dup_op.replace(dup_op.find("\"name\": \"fc2\""), 13, "\"name\": \"fc1\"");
  expect_rejected(dup_op, "duplicate");
}

TEST(ModelGraph, RejectsShapeMismatch) {
  // fc2 declares out_features=32 but writes a [tokens, 64]-shaped tensor.
  std::string json = kMlp;
  json.replace(json.find("{\"name\": \"y\", \"dims\": [\"tokens\", 32]}"),
               38, "{\"name\": \"y\", \"dims\": [\"tokens\", 64]}");
  expect_rejected(json, "fc2");
}

TEST(ModelGraph, RejectsUnknownAttrForKind) {
  std::string json = kMlp;
  json.replace(json.find("\"out_features\": 64, "), 0, "\"heads\": 4, ");
  expect_rejected(json, "heads");
}

TEST(ModelGraph, RejectsSelfLoopAndCycle) {
  // Self-loop: an op consuming its own output.
  expect_rejected(R"({
    "model": "m", "precision": "fp32", "tensors": [
      {"name": "a", "dims": ["tokens", 8]}
    ],
    "ops": [
      {"name": "loop", "kind": "elementwise", "inputs": ["a"],
       "outputs": ["a"]}
    ]
  })", "cycle");
  // Two-op cycle.
  expect_rejected(R"({
    "model": "m", "precision": "fp32", "tensors": [
      {"name": "a", "dims": ["tokens", 8]},
      {"name": "b", "dims": ["tokens", 8]}
    ],
    "ops": [
      {"name": "p", "kind": "elementwise", "inputs": ["b"],
       "outputs": ["a"]},
      {"name": "q", "kind": "elementwise", "inputs": ["a"],
       "outputs": ["b"]}
    ]
  })", "cycle");
}

TEST(ModelGraph, RejectsTopKExceedingExperts) {
  expect_rejected(R"({
    "model": "m", "precision": "fp32", "tensors": [
      {"name": "x", "dims": ["tokens", 32]},
      {"name": "y", "dims": ["tokens", 32]}
    ],
    "ops": [
      {"name": "moe", "kind": "moe", "inputs": ["x"], "outputs": ["y"],
       "attrs": {"experts": 4, "ffn": 64, "top_k": 8}}
    ]
  })", "top_k");
}

TEST(Scheduler, OrdersByDependencyWithManifestTieBreak) {
  // Declared out of dependency order: fc2 before fc1.
  const ModelGraph g = parse_model_graph(R"({
    "model": "m", "precision": "fp32",
    "tensors": [
      {"name": "x", "dims": ["tokens", 8]},
      {"name": "h", "dims": ["tokens", 8]},
      {"name": "y", "dims": ["tokens", 8]}
    ],
    "ops": [
      {"name": "fc2", "kind": "linear", "inputs": ["h"],
       "outputs": ["y"], "attrs": {"out_features": 8}},
      {"name": "fc1", "kind": "linear", "inputs": ["x"],
       "outputs": ["h"], "attrs": {"out_features": 8}}
    ]
  })");
  const std::vector<std::size_t> order = topological_order(g);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(g.ops[order[0]].name, "fc1");
  EXPECT_EQ(g.ops[order[1]].name, "fc2");
}

TEST(Lowering, ResolvesSymbolicDimsPerPhase) {
  const ModelGraph g = parse_model_graph(kMlp);
  const LoweredModel prefill = lower(g, {});  // manifest defaults: 2 x 8
  EXPECT_EQ(prefill.tokens, 16u);
  ASSERT_EQ(prefill.workload.layers.size(), 2u);
  EXPECT_EQ(prefill.workload.layers[0].shape.m, 16u);
  EXPECT_EQ(prefill.workload.layers[0].shape.n, 64u);
  EXPECT_EQ(prefill.workload.layers[0].shape.k, 32u);
  EXPECT_EQ(prefill.workload.layers[0].post, wl::PostOp::kGelu);

  LoweringOptions decode;
  decode.phase = Phase::kDecode;
  const LoweredModel d = lower(g, decode);
  EXPECT_EQ(d.tokens, 2u);  // one token per sequence
  EXPECT_EQ(d.workload.layers[0].shape.m, 2u);

  LoweringOptions big;
  big.batch = 4;
  big.seq_len = 32;
  const LoweredModel p = lower(g, big);
  EXPECT_EQ(p.batch, 4u);
  EXPECT_EQ(p.seq_len, 32u);
  EXPECT_EQ(p.tokens, 128u);
}

TEST(Lowering, AttentionPrefillVersusDecodeShapes) {
  const ModelGraph g = builtin_graph("gpt3-block");
  LoweringOptions options;
  options.batch = 2;
  options.seq_len = 2048;
  const LoweredModel prefill = lower(g, options);
  options.phase = Phase::kDecode;
  const LoweredModel decode = lower(g, options);

  // Prefill: every GEMM's M is tokens = batch*seq_len, and the attention
  // span equals tokens (the legacy aggregate-GEMM simplification).
  const wl::Layer& pscores = prefill.workload.layers[1];
  EXPECT_EQ(pscores.name, "decoder.scores");
  EXPECT_EQ(pscores.shape.m, 2u * 2048u);
  EXPECT_EQ(pscores.shape.n, 2u * 2048u * 96u);

  // Decode: one new token per sequence (M = batch) attending over the
  // KV cache of seq_len entries.
  const wl::Layer& dscores = decode.workload.layers[1];
  EXPECT_EQ(dscores.shape.m, 2u);
  EXPECT_EQ(dscores.shape.n, 2048u * 96u);
  const wl::Layer& dcontext = decode.workload.layers[2];
  EXPECT_EQ(dcontext.shape.k, 2048u);  // context reads the whole cache
  EXPECT_LT(decode.total_flops(), prefill.total_flops());
}

TEST(Lowering, MoeExpandsRouterAndExperts) {
  const ModelGraph g = builtin_graph("moe-mlp");  // 8 experts, ffn 512
  const LoweredModel m = lower(g, {});            // batch 4, seq 64
  // Layers: mlp.in, moe.router, moe.expert.ffn1, moe.expert.ffn2, mlp.mix
  // (the elementwise/norm ops fuse, adding no layers).
  ASSERT_EQ(m.workload.layers.size(), 5u);
  const wl::Layer& router = m.workload.layers[1];
  EXPECT_EQ(router.name, "moe.router");
  EXPECT_EQ(router.shape.n, 8u);
  EXPECT_EQ(router.post, wl::PostOp::kSoftmax);
  const wl::Layer& ffn1 = m.workload.layers[2];
  // 256 tokens * top_k 2 / 8 experts = 64 tokens per expert, repeated
  // once per expert — the multiplicity the sampled strata weight by.
  EXPECT_EQ(ffn1.shape.m, 64u);
  EXPECT_EQ(ffn1.shape.n, 512u);
  EXPECT_EQ(ffn1.repeat, 8u);

  // moe_top_k=8 routes every token to every expert.
  LoweringOptions dense;
  dense.moe_top_k = 8;
  const LoweredModel all = lower(g, dense);
  EXPECT_EQ(all.workload.layers[2].shape.m, 256u);

  LoweringOptions too_many;
  too_many.moe_top_k = 9;
  EXPECT_THROW((void)lower(g, too_many), GraphError);
}

TEST(Lowering, MoeMultiplicityReachesSampledStrata) {
  const LoweredModel m = lower(builtin_graph("moe-mlp"), {});
  const std::vector<sampling::Stratum> strata =
      sampling::enumerate_strata(m.workload.expanded_shapes(), 64);
  // The two 8-expert FFN layers collapse into strata with multiplicity 8;
  // their populations weight the estimator exactly like eight layers.
  bool found = false;
  for (const sampling::Stratum& stratum : strata) {
    if (stratum.layer_shape.m == 64 && stratum.layer_shape.n == 512) {
      EXPECT_EQ(stratum.multiplicity, 8u);
      EXPECT_EQ(stratum.population(), stratum.count * 8u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lowering, FusionRequiresAProducerWithAFreePostSlot) {
  // Input produced by no op: nothing to fuse into.
  const ModelGraph orphan = parse_model_graph(R"({
    "model": "m", "precision": "fp32", "tensors": [
      {"name": "x", "dims": ["tokens", 8]},
      {"name": "y", "dims": ["tokens", 8]}
    ],
    "ops": [
      {"name": "act", "kind": "elementwise", "inputs": ["x"],
       "outputs": ["y"]}
    ]
  })");
  EXPECT_THROW((void)lower(orphan, {}), GraphError);

  // Producer already carries a post-op: the fusion slot is taken.
  const ModelGraph taken = parse_model_graph(R"({
    "model": "m", "precision": "fp32", "tensors": [
      {"name": "x", "dims": ["tokens", 8]},
      {"name": "h", "dims": ["tokens", 8]},
      {"name": "y", "dims": ["tokens", 8]}
    ],
    "ops": [
      {"name": "fc", "kind": "linear", "inputs": ["x"], "outputs": ["h"],
       "attrs": {"out_features": 8, "post": "relu"}},
      {"name": "norm", "kind": "norm", "inputs": ["h"], "outputs": ["y"]}
    ]
  })");
  EXPECT_THROW((void)lower(taken, {}), GraphError);
}

TEST(Lowering, ContributionsCoverTheWholeWorkload) {
  for (const char* name : {"bert-block", "resnet50-stage", "moe-mlp"}) {
    const LoweredModel m = lower(builtin_graph(name), {});
    double frac = 0.0;
    std::uint64_t flops = 0;
    for (const OpContribution& op : m.ops) {
      frac += op.flops_frac;
      flops += op.flops;
    }
    EXPECT_NEAR(frac, 1.0, 1e-9) << name;
    EXPECT_EQ(flops, m.total_flops()) << name;
  }
}

TEST(Builtin, CatalogueMatchesShippedManifests) {
  ASSERT_EQ(builtin_manifests().size(), 5u);
  for (const BuiltinManifest& builtin : builtin_manifests()) {
    const ModelGraph g = parse_model_graph(builtin.json);
    EXPECT_FALSE(g.ops.empty()) << builtin.name;
    // Every builtin lowers with pure manifest defaults.
    const LoweredModel m = lower(g, {});
    EXPECT_FALSE(m.workload.layers.empty()) << builtin.name;
  }
  EXPECT_THROW((void)builtin_manifest("nope"), GraphError);
}

// ---- Bit-identity with the pre-frontend hard-coded generators. ----
//
// These replicate the deleted wl:: generator bodies verbatim; the
// frontend must reproduce them layer for layer (same names, shapes,
// post-ops and repeats), which makes every analytic makespan identical.

void legacy_transformer_block(wl::Workload& w, const std::string& prefix,
                              std::uint64_t tokens, std::uint64_t hidden,
                              std::uint64_t heads, unsigned repeat) {
  using wl::Layer;
  using wl::PostOp;
  const std::uint64_t head_dim = hidden / heads;
  const std::uint64_t ffn = 4 * hidden;
  w.layers.push_back(Layer{prefix + ".qkv",
                           sa::TileShape{tokens, 3 * hidden, hidden},
                           PostOp::kBiasAdd, repeat});
  w.layers.push_back(Layer{prefix + ".scores",
                           sa::TileShape{tokens, tokens * heads, head_dim},
                           PostOp::kSoftmax, repeat});
  w.layers.push_back(Layer{prefix + ".context",
                           sa::TileShape{tokens, head_dim * heads, tokens},
                           PostOp::kNone, repeat});
  w.layers.push_back(Layer{prefix + ".proj",
                           sa::TileShape{tokens, hidden, hidden},
                           PostOp::kLayerNorm, repeat});
  w.layers.push_back(Layer{prefix + ".ffn1",
                           sa::TileShape{tokens, ffn, hidden},
                           PostOp::kGelu, repeat});
  w.layers.push_back(Layer{prefix + ".ffn2",
                           sa::TileShape{tokens, hidden, ffn},
                           PostOp::kLayerNorm, repeat});
}

wl::Layer legacy_conv(const std::string& name, unsigned batch,
                      std::uint64_t out_ch, std::uint64_t out_hw,
                      std::uint64_t in_ch, std::uint64_t kernel,
                      unsigned repeat,
                      wl::PostOp post = wl::PostOp::kRelu) {
  return wl::Layer{name,
                   sa::TileShape{out_ch, batch * out_hw * out_hw,
                                 in_ch * kernel * kernel},
                   post, repeat};
}

wl::Workload legacy_resnet50(unsigned batch) {
  wl::Workload w;
  w.name = "Resnet-50";
  w.precision = sa::Precision::kFp32;
  w.layers.push_back(legacy_conv("conv1", batch, 64, 112, 3, 7, 1));
  w.layers.push_back(legacy_conv("conv2.reduce", batch, 64, 56, 256, 1, 2));
  w.layers.push_back(legacy_conv("conv2.reduce0", batch, 64, 56, 64, 1, 1));
  w.layers.push_back(legacy_conv("conv2.3x3", batch, 64, 56, 64, 3, 3));
  w.layers.push_back(legacy_conv("conv2.expand", batch, 256, 56, 64, 1, 3));
  w.layers.push_back(legacy_conv("conv3.reduce", batch, 128, 28, 512, 1, 3));
  w.layers.push_back(
      legacy_conv("conv3.reduce0", batch, 128, 28, 256, 1, 1));
  w.layers.push_back(legacy_conv("conv3.3x3", batch, 128, 28, 128, 3, 4));
  w.layers.push_back(legacy_conv("conv3.expand", batch, 512, 28, 128, 1, 4));
  w.layers.push_back(
      legacy_conv("conv4.reduce", batch, 256, 14, 1024, 1, 5));
  w.layers.push_back(
      legacy_conv("conv4.reduce0", batch, 256, 14, 512, 1, 1));
  w.layers.push_back(legacy_conv("conv4.3x3", batch, 256, 14, 256, 3, 6));
  w.layers.push_back(
      legacy_conv("conv4.expand", batch, 1024, 14, 256, 1, 6));
  w.layers.push_back(legacy_conv("conv5.reduce", batch, 512, 7, 2048, 1, 2));
  w.layers.push_back(
      legacy_conv("conv5.reduce0", batch, 512, 7, 1024, 1, 1));
  w.layers.push_back(legacy_conv("conv5.3x3", batch, 512, 7, 512, 3, 3));
  w.layers.push_back(legacy_conv("conv5.expand", batch, 2048, 7, 512, 1, 3));
  w.layers.push_back(wl::Layer{"fc", sa::TileShape{1000, batch, 2048},
                               wl::PostOp::kNone, 1});
  return w;
}

void expect_identical(const wl::Workload& actual,
                      const wl::Workload& expected) {
  EXPECT_EQ(actual.name, expected.name);
  EXPECT_EQ(actual.precision, expected.precision);
  ASSERT_EQ(actual.layers.size(), expected.layers.size());
  for (std::size_t i = 0; i < expected.layers.size(); ++i) {
    const wl::Layer& a = actual.layers[i];
    const wl::Layer& e = expected.layers[i];
    EXPECT_EQ(a.name, e.name) << "layer " << i;
    EXPECT_EQ(a.shape.m, e.shape.m) << e.name;
    EXPECT_EQ(a.shape.n, e.shape.n) << e.name;
    EXPECT_EQ(a.shape.k, e.shape.k) << e.name;
    EXPECT_EQ(a.post, e.post) << e.name;
    EXPECT_EQ(a.repeat, e.repeat) << e.name;
  }
}

// A builtin manifest lowered at `batch` (0 keeps its default).
wl::Workload lower_builtin(const char* model, std::uint64_t batch = 0) {
  LoweringOptions options;
  options.batch = batch;
  return lower(builtin_graph(model), options).workload;
}

TEST(BitIdentity, Resnet50MatchesLegacyGenerator) {
  for (unsigned batch : {1u, 8u, 64u}) {
    expect_identical(lower_builtin("resnet50-stage", batch),
                     legacy_resnet50(batch));
  }
}

TEST(BitIdentity, BertMatchesLegacyGenerator) {
  for (unsigned batch : {1u, 8u}) {
    wl::Workload expected;
    expected.name = "BERT";
    expected.precision = sa::Precision::kFp32;
    legacy_transformer_block(expected, "encoder", 384ull * batch, 768, 12,
                             12);
    expect_identical(lower_builtin("bert-block", batch), expected);
  }
}

TEST(BitIdentity, Gpt3MatchesLegacyGenerator) {
  wl::Workload expected;
  expected.name = "GPT3";
  expected.precision = sa::Precision::kFp32;
  legacy_transformer_block(expected, "decoder", 2048, 12288, 96, 96);
  expect_identical(lower_builtin("gpt3-block"), expected);
}

TEST(BitIdentity, ServeTinyMatchesLegacyShapes) {
  const serve::ServeModel tiny = serve::serve_model("tiny", 0);
  for (unsigned batch : {1u, 4u, 128u}) {
    const std::vector<sa::TileShape> shapes = tiny.layers(batch);
    const std::uint64_t m = 16ull * batch;
    ASSERT_EQ(shapes.size(), 3u);
    EXPECT_EQ(shapes[0].m, m);
    EXPECT_EQ(shapes[0].n, 256u);
    EXPECT_EQ(shapes[0].k, 256u);
    EXPECT_EQ(shapes[1].n, 1024u);
    EXPECT_EQ(shapes[1].k, 256u);
    EXPECT_EQ(shapes[2].n, 256u);
    EXPECT_EQ(shapes[2].k, 1024u);
  }
}

// ---- File loading and the shared typed error path. ----

TEST(FileError, LoaderAndTraceReplayShareTheTypedReadPath) {
  try {
    (void)util::read_text_file(temp_path("no_such_manifest.json"));
    FAIL() << "expected FileError";
  } catch (const util::FileError& error) {
    EXPECT_NE(std::string(error.what()).find("cannot read"),
              std::string::npos);
  }
  EXPECT_THROW((void)util::read_text_file(::testing::TempDir()),
               util::FileError);
  EXPECT_THROW((void)load_model_graph(temp_path("no_such_manifest.json")),
               util::FileError);
}

TEST(FileError, LoadNamesTheFileInParseDiagnostics) {
  const std::string path = write_temp("broken.json", "{ not json");
  try {
    (void)load_model_graph(path);
    FAIL() << "expected GraphError";
  } catch (const GraphError& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos);
  }
}

}  // namespace
}  // namespace maco::graph

// ---- The graph CLI subcommand and scenario. ----

namespace maco::driver {
namespace {

std::string manifest_on_disk() {
  static const std::string path = [] {
    const std::string p =
        ::testing::TempDir() + "/graph_cmd_manifest.json";
    std::ofstream out(p);
    out << graph::builtin_manifest("moe-mlp");
    return p;
  }();
  return path;
}

TEST(GraphCmd, ValidateSummarizesAValidManifest) {
  const std::string summary = validate_manifest(manifest_on_disk());
  EXPECT_NE(summary.find("ok"), std::string::npos);
  EXPECT_NE(summary.find("moe-mlp"), std::string::npos);
  EXPECT_NE(summary.find("5 ops"), std::string::npos);
}

TEST(GraphCmd, ValidateThrowsOnABadManifest) {
  const std::string path = ::testing::TempDir() + "/bad_manifest.json";
  std::ofstream(path) << R"({"model": "m"})";
  EXPECT_THROW((void)validate_manifest(path), graph::GraphError);
  const std::string deep = ::testing::TempDir() + "/deep_manifest.json";
  std::ofstream(deep) << std::string(200'000, '[');
  EXPECT_THROW((void)validate_manifest(deep), graph::GraphError);
  // Parses, but dim products overflow 64 bits (or an expert repeat
  // exceeds Layer::repeat's 32 bits): lowering at the defaults rejects
  // them, naming what overflowed.
  const std::string moe = ::testing::TempDir() + "/huge_moe_manifest.json";
  std::ofstream(moe) << R"({"model": "m", "tensors": [
      {"name": "x", "dims": ["tokens", 8]},
      {"name": "y", "dims": ["tokens", 8]}],
    "ops": [{"name": "moe", "kind": "moe", "inputs": ["x"],
             "outputs": ["y"],
             "attrs": {"experts": 4294967296, "ffn": 8}}]})";
  for (const auto& [manifest, needle] :
       {std::pair{overflow_manifests::wrapping_tokens(),
                  "model 'GPT3': tokens"},
        std::pair{overflow_manifests::wrapping_flops(), "op 'mm': FLOPs"},
        std::pair{moe, "op 'moe': expert repeat 4294967296 exceeds"}}) {
    try {
      (void)validate_manifest(manifest);
      ADD_FAILURE() << manifest << " validated";
    } catch (const graph::GraphError& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << error.what();
    }
  }
  EXPECT_THROW(
      (void)validate_manifest(::testing::TempDir() + "/missing.json"),
      util::FileError);
}

TEST(GraphCmd, ShowRendersLayersAndContributions) {
  const std::string text =
      show_manifest(manifest_on_disk(), graph::LoweringOptions{});
  EXPECT_NE(text.find("moe.expert.ffn1"), std::string::npos);
  EXPECT_NE(text.find("Per-op contribution"), std::string::npos);
  EXPECT_NE(text.find("fused:mlp.in"), std::string::npos);
  EXPECT_NE(text.find("phase prefill"), std::string::npos);

  graph::LoweringOptions decode;
  decode.phase = graph::Phase::kDecode;
  const std::string dtext = show_manifest(manifest_on_disk(), decode);
  EXPECT_NE(dtext.find("phase decode"), std::string::npos);
}

ScenarioResult run_graph_point(
    const std::map<std::string, std::string>& raw) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  const Scenario* scenario = registry.find("graph");
  EXPECT_NE(scenario, nullptr);
  ScenarioRequest request;
  request.params = scenario->schema.bind(raw);
  return scenario->run(request);
}

TEST(GraphScenario, RunsBuiltinsAndFilesAtAnalyticFidelity) {
  const ScenarioResult from_name =
      run_graph_point({{"model_file", "moe-mlp"}});
  const ScenarioResult from_file =
      run_graph_point({{"model_file", manifest_on_disk()}});
  ASSERT_NE(from_name.find("makespan_ms"), nullptr);
  ASSERT_NE(from_file.find("makespan_ms"), nullptr);
  EXPECT_DOUBLE_EQ(from_name.find("makespan_ms")->value,
                   from_file.find("makespan_ms")->value);
  EXPECT_EQ(from_name.find("tokens")->value, 256.0);
  EXPECT_EQ(from_name.find("graph_ops")->value, 5.0);
  EXPECT_EQ(from_name.find("lowered_layers")->value, 5.0);
  // Per-op contribution metrics, keyed by sanitized op name.
  ASSERT_NE(from_name.find("op_flops_frac_moe"), nullptr);
  EXPECT_GT(from_name.find("op_flops_frac_moe")->value, 0.5);
}

TEST(GraphScenario, PrefillAndDecodeDiffer) {
  const ScenarioResult prefill = run_graph_point(
      {{"model_file", "tiny"}, {"batch", "4"}, {"seq_len", "64"}});
  const ScenarioResult decode = run_graph_point(
      {{"model_file", "tiny"}, {"batch", "4"}, {"seq_len", "64"},
       {"phase", "decode"}});
  EXPECT_EQ(prefill.find("tokens")->value, 256.0);
  EXPECT_EQ(decode.find("tokens")->value, 4.0);
  EXPECT_LT(decode.find("makespan_ms")->value,
            prefill.find("makespan_ms")->value);
}

TEST(GraphScenario, SampledFidelityReportsErrorBars) {
  const ScenarioResult result = run_graph_point(
      {{"model_file", "tiny"}, {"fidelity", "sampled"}});
  ASSERT_NE(result.find("makespan_ms_ci95"), nullptr);
  ASSERT_NE(result.find("gflops_ci95"), nullptr);
}

TEST(GraphScenario, RejectsAnEmptyModelFile) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  const Scenario* scenario = registry.find("graph");
  ASSERT_NE(scenario, nullptr);
  EXPECT_THROW((void)scenario->schema.bind({}), std::invalid_argument);
}

}  // namespace
}  // namespace maco::driver

// Deep-learning inference on MACO (the paper's Fig. 8 scenario).
//
// Runs ResNet-50, BERT and GPT-3 inference GEMM traces (FP32) through the
// system timing model on all 16 compute nodes, with the GEMM+ mapping of
// Section IV.B: MMAEs run the GEMMs while the CPUs execute the non-GEMM
// stages (softmax / layernorm / GELU) of the previous layer in parallel,
// and MA_STASH prefetches the next layer's weights.
//
// Prints a per-layer table for BERT and the Fig. 8-style summary for all
// three networks against the five evaluated systems. Exits non-zero unless
// every makespan is positive and the pipelined BERT total does not exceed
// the serial one.
#include <cstdio>

#include "baselines/comparison.hpp"
#include "core/gemm_plus.hpp"
#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"

namespace {

const char* post_name(maco::wl::PostOp post) {
  using maco::wl::PostOp;
  switch (post) {
    case PostOp::kNone: return "-";
    case PostOp::kBiasAdd: return "bias";
    case PostOp::kRelu: return "relu";
    case PostOp::kGelu: return "gelu";
    case PostOp::kSoftmax: return "softmax";
    case PostOp::kLayerNorm: return "layernorm";
  }
  return "?";
}

// Reports a failed check on stderr; returns `holds`.
bool check(bool holds, const char* what) {
  if (!holds) std::fprintf(stderr, "FAILED: %s\n", what);
  return holds;
}

// Returns whether every check held.
bool per_layer_bert() {
  using namespace maco;
  std::puts("== BERT-base (batch 8, seq 384): per-layer GEMM+ pipeline ==");
  std::puts(
      "  layer             M      N      K   post-op    GEMM(ms)  CPU(ms)");

  const core::SystemConfig config = core::SystemConfig::maco_default();
  const baseline::Comparator comparator(config, 16);
  const core::SystemTimingModel model(config);
  const wl::Workload bert =
      graph::lower(graph::builtin_graph("bert-block")).workload;

  core::TimingOptions options;
  options.active_nodes = 16;
  options.cooperative = true;
  options.precision = bert.precision;

  bool ok = true;
  for (const auto& layer : bert.layers) {
    options.shape = layer.shape;
    const core::SystemTiming timing = model.run(options);
    ok = check(timing.makespan_ps > 0, "a BERT layer's makespan is positive") &&
         ok;
    std::printf("  %-14s %6llu %6llu %6llu   %-9s %9.3f %8.3f\n",
                layer.name.c_str(),
                static_cast<unsigned long long>(layer.shape.m),
                static_cast<unsigned long long>(layer.shape.n),
                static_cast<unsigned long long>(layer.shape.k),
                post_name(layer.post),
                static_cast<double>(timing.makespan_ps) / 1e9,
                static_cast<double>(
                    comparator.post_op_time_ps(layer, bert.precision)) /
                    1e9);
  }

  // GEMM+ schedule: serial vs pipelined across the 12 encoder blocks.
  std::vector<core::GemmPlusStage> stages;
  for (const auto& layer : bert.layers) {
    options.shape = layer.shape;
    core::GemmPlusStage stage;
    stage.gemm_ps = model.run(options).makespan_ps;
    stage.cpu_post_ps = comparator.post_op_time_ps(layer, bert.precision);
    stage.stash_ps = comparator.stash_time_ps(layer, bert.precision);
    for (unsigned r = 0; r < layer.repeat; ++r) stages.push_back(stage);
  }
  const auto serial = core::schedule_gemm_plus(stages, /*overlap=*/false);
  const auto piped = core::schedule_gemm_plus(stages, /*overlap=*/true);
  ok = check(piped.total_ps <= serial.total_ps,
             "the pipelined total does not exceed the serial one") &&
       ok;
  std::printf("\n  12 blocks serial:    %8.1f ms\n",
              static_cast<double>(serial.total_ps) / 1e9);
  std::printf(
      "  12 blocks pipelined: %8.1f ms  (%.0f%% of CPU work hidden)\n\n",
      static_cast<double>(piped.total_ps) / 1e9,
      piped.overlap_fraction * 100.0);
  return ok;
}

// Returns whether every check held.
bool fig8_summary() {
  using namespace maco;
  std::puts(
      "== Fig. 8: five systems, three networks (GFLOPS, FP32, 256 PEs) ==");
  const baseline::Comparator comparator(core::SystemConfig::maco_default(), 16);

  std::printf("  %-10s", "network");
  for (const char* s :
       {"Baseline-1", "Baseline-2", "Gem5-RASA", "Gemmini", "MACO"}) {
    std::printf(" %11s", s);
  }
  std::puts("");
  bool ok = true;
  for (const char* model : {"resnet50-stage", "bert-block", "gpt3-block"}) {
    const wl::Workload workload =
        graph::lower(graph::builtin_graph(model)).workload;
    const auto results = comparator.run_all(workload);
    std::printf("  %-10s", workload.name.c_str());
    for (const auto& r : results) {
      ok = check(r.time_ps > 0, "a Fig. 8 system's makespan is positive") &&
           ok;
      std::printf(" %11.1f", r.gflops);
    }
    std::puts("");
  }
  std::puts("");
  return ok;
}

}  // namespace

int main() {
  const bool bert_ok = per_layer_bert();
  const bool fig8_ok = fig8_summary();
  return bert_ok && fig8_ok ? 0 : 1;
}

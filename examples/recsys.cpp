// Recommender-system inference on MACO — the paper's motivating scenario
// for loosely-coupled architectures (Section I): "we can offload top and
// bottom MLPs to the matrix engine leaving the CPU core free to run
// embedding lookups."
//
// A DLRM-style model processes request batches in three stages:
//   1. embedding lookups  — sparse gathers, CPU work (cache-dominated),
//   2. bottom MLP on the dense features, top MLP on the interactions —
//      dense GEMMs, MMAE work,
//   3. feature interaction + sigmoid — small CPU work.
// On a tightly-coupled design the engine and the core contend; on MACO the
// per-request CPU work of batch i runs while the MMAE grinds batch i-1's
// MLPs. This example quantifies that overlap with the GEMM+ scheduler,
// and exits non-zero unless both totals are finite and positive and the
// overlapped one is below the serialized one.
#include <cmath>
#include <cstdio>

#include "core/config.hpp"
#include "core/gemm_plus.hpp"
#include "core/timing_model.hpp"

namespace {

using namespace maco;

struct MlpSpec {
  const char* name;
  std::vector<std::uint64_t> widths;  // layer widths, input first
};

// DLRM-ish dimensions (Meta's open-source configuration, scaled).
constexpr std::uint64_t kBatch = 2048;
constexpr std::uint64_t kNumTables = 26;     // sparse features
constexpr std::uint64_t kEmbeddingDim = 128;

sim::TimePs mlp_gemm_time(const core::SystemTimingModel& model,
                          const MlpSpec& mlp, unsigned nodes) {
  core::TimingOptions options;
  options.active_nodes = nodes;
  options.cooperative = nodes > 1;
  options.precision = sa::Precision::kFp32;
  sim::TimePs total = 0;
  for (std::size_t l = 0; l + 1 < mlp.widths.size(); ++l) {
    options.shape =
        sa::TileShape{kBatch, mlp.widths[l + 1], mlp.widths[l]};
    total += model.run(options).makespan_ps;
  }
  return total;
}

}  // namespace

int main() {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const core::SystemTimingModel model(config);
  const cpu::CpuKernelModel& kernels = config.cpu.kernels;
  const unsigned nodes = 16;

  const MlpSpec bottom{"bottom MLP", {13, 512, 256, kEmbeddingDim}};
  const MlpSpec top{"top MLP", {479, 1024, 1024, 256, 1}};

  // Per-batch stage costs.
  const sim::TimePs bottom_ps = mlp_gemm_time(model, bottom, nodes);
  const sim::TimePs top_ps = mlp_gemm_time(model, top, nodes);
  // Embedding gathers parallelize across the 16 CPU cores.
  const sim::TimePs embed_ps = kernels.cycles_to_ps(
      kernels.embedding_lookup_cycles(kBatch * kNumTables, kEmbeddingDim,
                                      sa::Precision::kFp32) /
      nodes);
  // Interaction (pairwise dots over the 27 feature vectors, per sample)
  // + sigmoid, also CPU-side, split across the cores.
  const sim::TimePs interact_ps = kernels.cycles_to_ps(
      kernels.gemm_cycles(kNumTables + 1, kNumTables + 1, kEmbeddingDim,
                          sa::Precision::kFp32) *
          kBatch / nodes +
      1);

  std::puts("== DLRM-style inference, batch 2048, 26 embedding tables ==");
  std::printf("  per-batch stage costs: embeddings (CPU) %.0f us, "
              "bottom MLP (MMAE) %.0f us,\n    top MLP (MMAE) %.0f us, "
              "interaction (CPU) %.0f us\n\n",
              embed_ps / 1e6, bottom_ps / 1e6, top_ps / 1e6,
              interact_ps / 1e6);

  // A stream of request batches: MMAE stage = both MLPs; CPU stage =
  // embeddings + interaction of the neighbouring batches.
  const int batches = 64;
  std::vector<core::GemmPlusStage> stages(
      batches, core::GemmPlusStage{bottom_ps + top_ps,
                                   embed_ps + interact_ps, 0});
  const auto serial = core::schedule_gemm_plus(stages, /*overlap=*/false);
  const auto piped = core::schedule_gemm_plus(stages, /*overlap=*/true);

  const double serial_ms = static_cast<double>(serial.total_ps) / 1e9;
  const double piped_ms = static_cast<double>(piped.total_ps) / 1e9;
  const double serial_qps =
      batches * static_cast<double>(kBatch) / (serial_ms / 1e3);
  const double piped_qps =
      batches * static_cast<double>(kBatch) / (piped_ms / 1e3);

  std::printf("  %d batches serialized (TCA-style):  %8.2f ms  %12.0f req/s\n",
              batches, serial_ms, serial_qps);
  std::printf("  %d batches overlapped  (MACO):      %8.2f ms  %12.0f req/s\n",
              batches, piped_ms, piped_qps);
  std::printf("  speedup from CPU/MMAE decoupling: %.2fx "
              "(%.0f%% of CPU work hidden under the MLPs)\n",
              serial_ms / piped_ms, piped.overlap_fraction * 100.0);
  const bool ok = std::isfinite(serial_ms) && std::isfinite(piped_ms) &&
                  piped_ms > 0.0 && piped_ms < serial_ms;
  if (!ok) {
    std::fputs("FAILED: overlapping must shorten a positive total\n", stderr);
  }
  return ok ? 0 : 1;
}

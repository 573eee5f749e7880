#include "baselines/comparison.hpp"

#include "core/gemm_plus.hpp"
#include "util/assert.hpp"

namespace maco::baseline {

Comparator::Comparator(const core::SystemConfig& config, unsigned nodes)
    : config_(config), nodes_(nodes) {
  MACO_ASSERT(nodes >= 1 && nodes <= config.node_count);
}

double Comparator::accelerator_peak_flops() const noexcept {
  // Normalized: one MAC per PE per cycle (paper: "same number of processing
  // elements (16×16)"), 16 PEs per node.
  return 2.0 * config_.mmae.frequency_hz * config_.mmae.sa.rows *
         config_.mmae.sa.cols * nodes_;
}

double Comparator::cpu_peak_flops(sa::Precision precision) const noexcept {
  return config_.cpu_peak_flops(precision) * nodes_;
}

sim::TimePs Comparator::post_op_time_ps(const wl::Layer& layer,
                                        sa::Precision precision) const {
  const cpu::CpuKernelModel& k = config_.cpu.kernels;
  const std::uint64_t m = layer.shape.m;
  const std::uint64_t n = layer.shape.n;
  sim::Cycles cycles = 0;
  switch (layer.post) {
    case wl::PostOp::kNone: return 0;
    case wl::PostOp::kBiasAdd:
      cycles = k.bias_add_cycles(m * n, precision);
      break;
    case wl::PostOp::kRelu: cycles = k.relu_cycles(m * n, precision); break;
    case wl::PostOp::kGelu: cycles = k.gelu_cycles(m * n, precision); break;
    case wl::PostOp::kSoftmax:
      cycles = k.softmax_cycles(m, n, precision);
      break;
    case wl::PostOp::kLayerNorm:
      cycles = k.layernorm_cycles(m, n, precision);
      break;
  }
  // The post-op parallelizes over the nodes' C partitions.
  return k.cycles_to_ps(cycles / nodes_ + 1);
}

sim::TimePs Comparator::stash_time_ps(const wl::Layer& layer,
                                      sa::Precision precision) const {
  // MA_STASH prefetches the next layer's B operand (weights) DRAM -> L3.
  const double bytes = static_cast<double>(layer.shape.k) * layer.shape.n *
                       sa::element_bytes(precision);
  return static_cast<sim::TimePs>(
      bytes / config_.dram_total_bandwidth() * 1e12);
}

ComparisonResult Comparator::run_accelerated(const wl::Workload& workload,
                                             std::string system,
                                             core::TimingOptions options,
                                             bool overlap_post_ops) const {
  const core::SystemTimingModel model(config_);
  options.cooperative = true;
  options.precision = workload.precision;
  options.simd_ways_override = 1;  // PE-count normalization (see header)

  std::vector<core::GemmPlusStage> stages;
  for (const auto& layer : workload.layers) {
    options.shape = layer.shape;
    const core::SystemTiming timing = model.run(options);
    core::GemmPlusStage stage;
    stage.gemm_ps = timing.makespan_ps;
    stage.cpu_post_ps = post_op_time_ps(layer, workload.precision);
    stage.stash_ps =
        options.use_stash_lock ? stash_time_ps(layer, workload.precision) : 0;
    for (unsigned r = 0; r < layer.repeat; ++r) stages.push_back(stage);
  }

  const core::GemmPlusResult schedule =
      core::schedule_gemm_plus(stages, overlap_post_ops);

  ComparisonResult result;
  result.system = std::move(system);
  result.workload = workload.name;
  result.time_ps = schedule.total_ps;
  const double seconds = sim::to_seconds(schedule.total_ps);
  result.gflops =
      static_cast<double>(workload.total_flops()) / seconds / 1e9;
  result.efficiency = result.gflops * 1e9 / accelerator_peak_flops();
  return result;
}

ComparisonResult Comparator::run_maco(const wl::Workload& workload) const {
  core::TimingOptions options;
  options.active_nodes = nodes_;
  options.use_matlb = true;
  options.use_stash_lock = true;
  return run_accelerated(workload, "MACO", options, /*overlap=*/true);
}

std::vector<ComparisonResult> Comparator::run_all(
    const wl::Workload& workload) const {
  return {run_baseline1_cpu_only(workload),
          run_baseline2_no_mapping(workload), run_rasa_like(workload),
          run_gemmini_like(workload), run_maco(workload)};
}

}  // namespace maco::baseline

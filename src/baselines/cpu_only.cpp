// Baseline-1: MACO with CPU only — GEMM runs in software on the cores'
// vector units through the cache hierarchy; MMAEs are unused.
#include "baselines/comparison.hpp"
#include "model/roofline.hpp"

namespace maco::baseline {

ComparisonResult Comparator::run_baseline1_cpu_only(
    const wl::Workload& workload) const {
  const cpu::CpuKernelModel& kernels = config_.cpu.kernels;
  const sa::Precision precision = workload.precision;

  double total_ps = 0.0;
  for (const auto& layer : workload.layers) {
    const auto& s = layer.shape;
    // Compute side: software GEMM split over the cores.
    const sim::Cycles cycles =
        kernels.gemm_cycles(s.m, s.n, s.k, precision) / nodes_ + 1;
    const double compute_ps =
        static_cast<double>(kernels.cycles_to_ps(cycles));
    // Memory side: L2-blocked traffic against the shared DRAM channels.
    const double ai = model::gemm_arithmetic_intensity(
        s.m, s.n, s.k, 256, 256, sa::element_bytes(precision));
    const double flops = static_cast<double>(s.flops());
    const double mem_ps =
        flops / ai / config_.dram_total_bandwidth() * 1e12;
    const double layer_ps =
        std::max(compute_ps, mem_ps) +
        static_cast<double>(post_op_time_ps(layer, precision));
    total_ps += layer_ps * layer.repeat;
  }

  ComparisonResult result;
  result.system = "Baseline-1";
  result.workload = workload.name;
  result.time_ps = static_cast<sim::TimePs>(total_ps);
  result.gflops = static_cast<double>(workload.total_flops()) /
                  (total_ps * 1e-12) / 1e9;
  result.efficiency = result.gflops * 1e9 / cpu_peak_flops(precision);
  return result;
}

}  // namespace maco::baseline

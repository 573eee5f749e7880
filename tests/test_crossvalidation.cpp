// Cross-validation of the two fidelity layers (docs/ARCHITECTURE.md): the
// detailed MacoSystem (real data, line/flit/cycle granularity) and the
// SystemTimingModel (closed forms + contention) must agree on overlapping
// configurations — the benches' credibility rests on this.
#include <gtest/gtest.h>

#include "core/maco_system.hpp"
#include "core/timing_model.hpp"
#include "util/rng.hpp"

namespace maco::core {
namespace {

// Runs `size`^3 FP64 on one detailed node via MA_CFG and returns the
// MMAE-report efficiency against the node's FP64 peak.
double detailed_efficiency(std::uint64_t size) {
  SystemConfig config = SystemConfig::maco_default();
  config.node_count = 1;
  MacoSystem system(config);
  Process& process = system.create_process();
  system.schedule_process(0, process);

  util::Rng rng(size);
  const auto a_desc = system.alloc_matrix(process, size, size);
  const auto b_desc = system.alloc_matrix(process, size, size);
  const auto c_desc = system.alloc_matrix(process, size, size);
  system.write_matrix(process, a_desc, sa::HostMatrix::random(size, size, rng));
  system.write_matrix(process, b_desc, sa::HostMatrix::random(size, size, rng));
  system.write_matrix(process, c_desc, sa::HostMatrix(size, size));

  isa::GemmParams gemm;
  gemm.a_base = a_desc.base;
  gemm.b_base = b_desc.base;
  gemm.c_base = c_desc.base;
  gemm.m = gemm.n = gemm.k = static_cast<std::uint32_t>(size);

  cpu::CpuCore& cpu = system.node(0).cpu();
  cpu.regs().write_param_block(10, gemm.pack());
  cpu.execute_source("ma_cfg x5, x10");
  system.run();
  const auto& entry = cpu.mtq().entry(static_cast<cpu::Maid>(cpu.regs().read(5)));
  EXPECT_TRUE(entry.done);
  EXPECT_FALSE(entry.exception_en);

  const mmae::TaskReport& report = system.node(0).mmae().reports().front();
  return report.efficiency(
      system.node(0).mmae().peak_macs_per_second());
}

TEST(CrossValidation, DetailedAndTimingModelAgreeOnEfficiency) {
  // Sizes large enough that the detailed run's cold start (first-tile DMA,
  // first-touch walks) amortizes; the model is steady-state by design.
  const SystemTimingModel model(SystemConfig::maco_default());
  for (const std::uint64_t size : {256ull, 320ull}) {
    TimingOptions options;
    options.shape = sa::TileShape{size, size, size};
    const double model_eff = model.run(options).mean_efficiency;
    const double detail_eff = detailed_efficiency(size);
    // Same machine, two abstractions: agreement within 12 percentage
    // points (the detailed run pays cold-start effects the steady-state
    // model amortizes away).
    EXPECT_NEAR(detail_eff, model_eff, 0.12)
        << "size " << size << ": detailed " << detail_eff << " vs model "
        << model_eff;
    // Both high: a single FP64 node is compute-bound at these sizes.
    EXPECT_GT(detail_eff, 0.80);
  }
}

TEST(CrossValidation, DetailedSaBusyMatchesClosedFormCycles) {
  // The report's SA-busy time must equal the closed-form cycle count that
  // the timing model integrates — no drift between the two layers.
  SystemConfig config = SystemConfig::maco_default();
  config.node_count = 1;
  MacoSystem system(config);
  Process& process = system.create_process();
  system.schedule_process(0, process);
  util::Rng rng(3);

  const std::uint64_t size = 128;
  const auto a_desc = system.alloc_matrix(process, size, size);
  const auto b_desc = system.alloc_matrix(process, size, size);
  const auto c_desc = system.alloc_matrix(process, size, size);
  system.write_matrix(process, a_desc, sa::HostMatrix::random(size, size, rng));
  system.write_matrix(process, b_desc, sa::HostMatrix::random(size, size, rng));
  system.write_matrix(process, c_desc, sa::HostMatrix(size, size));

  isa::GemmParams gemm;
  gemm.a_base = a_desc.base;
  gemm.b_base = b_desc.base;
  gemm.c_base = c_desc.base;
  gemm.m = gemm.n = gemm.k = static_cast<std::uint32_t>(size);
  cpu::CpuCore& cpu = system.node(0).cpu();
  cpu.regs().write_param_block(10, gemm.pack());
  cpu.execute_source("ma_cfg x5, x10");
  system.run();

  const SystemTimingModel model(config);
  TimingOptions options;
  options.shape = sa::TileShape{size, size, size};
  const std::uint64_t expected_cycles =
      model.aggregate_sa_cycles(options.shape, options);

  const mmae::TaskReport& report = system.node(0).mmae().reports().front();
  const double cycles =
      static_cast<double>(report.sa_busy_ps) * config.mmae.frequency_hz /
      1e12;
  EXPECT_NEAR(cycles, static_cast<double>(expected_cycles),
              static_cast<double>(expected_cycles) * 0.01);
}

}  // namespace
}  // namespace maco::core

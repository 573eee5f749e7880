// Equivalence suite for the detailed machine's performance transformations.
//
// The closed-form SA functional path is a pure performance transformation:
// C matrices bit for bit and makespans to the picosecond must match the
// register-level PE simulation (sa::SaConfig::exact_pe_sim), both for the
// array alone and through the whole detailed machine (built with operand
// values, so the array really runs and C is read back). Likewise operand
// values never reach timing: every ValuesEquivalence run executes once
// with SystemConfig::carry_values on and once with it off, and the per-node
// task reports, makespans and counters must be identical — and equal to
// what the value-free detailed runners report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/detailed_runner.hpp"
#include "core/maco_system.hpp"
#include "core/timing_model.hpp"
#include "obs/collector.hpp"
#include "os/scheduler.hpp"
#include "sa/systolic_array.hpp"
#include "serve/cost_model.hpp"
#include "serve/workload.hpp"
#include "util/rng.hpp"

namespace maco {
namespace {

// ---------------- systolic array: exact vs fast ----------------

// Both functional paths must produce bit-identical C for any shape,
// including ones that do not divide the 4x4 array (padded k positions add
// an explicit +0.0, which flushes -0.0 — the fast path must reproduce
// even that).
void expect_sa_paths_bit_identical(std::uint64_t m, std::uint64_t n,
                                   std::uint64_t k) {
  util::Rng rng(42);
  const auto a = sa::HostMatrix::random(m, k, rng);
  const auto b = sa::HostMatrix::random(k, n, rng);
  const auto c0 = sa::HostMatrix::random(m, n, rng);  // nonzero initial C

  sa::SaConfig config;
  config.exact_pe_sim = true;
  sa::SystolicArray exact(config);
  config.exact_pe_sim = false;
  sa::SystolicArray fast(config);

  sa::HostMatrix c_exact = c0;
  sa::HostMatrix c_fast = c0;
  const auto r_exact = exact.run(a, b, c_exact);
  const auto r_fast = fast.run(a, b, c_fast);

  EXPECT_EQ(r_exact.cycles, r_fast.cycles);
  EXPECT_EQ(r_exact.passes, r_fast.passes);
  for (std::uint64_t i = 0; i < m; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      const double ve = c_exact.at(i, j);
      const double vf = c_fast.at(i, j);
      // Bitwise comparison: catches a -0.0/+0.0 or FMA-contraction split
      // that a value comparison would wave through.
      EXPECT_EQ(std::memcmp(&ve, &vf, sizeof ve), 0)
          << "C(" << i << "," << j << ") " << ve << " vs " << vf << " at "
          << m << "x" << n << "x" << k;
    }
  }
}

TEST(SaEquivalence, SingleElement) {
  expect_sa_paths_bit_identical(1, 1, 1);
}

TEST(SaEquivalence, RaggedShape) {
  expect_sa_paths_bit_identical(5, 7, 9);
}

TEST(SaEquivalence, NonDividingBlocks) {
  expect_sa_paths_bit_identical(33, 17, 65);
}

TEST(SaEquivalence, ArrayAlignedShape) {
  expect_sa_paths_bit_identical(64, 64, 64);
}

// ---------------- detailed machine harness ----------------

// An independent FP64 size³ GEMM on each of `nodes` nodes.
core::TimingOptions cube_options(std::uint64_t size, unsigned nodes) {
  core::TimingOptions options;
  options.shape = sa::TileShape{size, size, size};
  options.precision = sa::Precision::kFp64;
  options.active_nodes = nodes;
  return options;
}

// Everything a detailed run exposes about its timing.
struct MachineRun {
  std::vector<std::vector<mmae::TaskReport>> reports;  // per node
  sim::TimePs makespan_ps = 0;  // latest clean task end, as the runners
  sim::TimePs engine_end_ps = 0;
  std::map<std::string, std::uint64_t> counters;
};

using Program = std::function<void(core::MacoSystem&)>;

// Builds the machine with operand values on or off, lets `program` issue
// and run its work, and records what the run exposes.
MachineRun run_machine(core::SystemConfig config, bool carry_values,
                       const Program& program) {
  config.carry_values = carry_values;
  config.profile = core::ProfileMode::kCounters;
  core::MacoSystem system(config);
  program(system);
  MachineRun run;
  for (unsigned n = 0; n < system.node_count(); ++n) {
    run.reports.push_back(system.node(n).mmae().reports());
    for (const mmae::TaskReport& report : run.reports.back()) {
      if (report.exception == cpu::ExceptionType::kNone) {
        run.makespan_ps = std::max(run.makespan_ps, report.end);
      }
    }
  }
  run.engine_end_ps = system.engine().now();
  obs::RunObservation observation;
  observation.want_counters = true;
  obs::collect(system, observation);
  run.counters = observation.counters;
  return run;
}

// run_detailed_gemm's work — one build_detailed_gemm_task per node, each
// in its own process, under os::Scheduler — as a harness program. When
// `c_out` is set, each node's C is read back into it after the run.
Program detailed_gemm_program(const core::TimingOptions& options,
                              unsigned nodes,
                              std::vector<sa::HostMatrix>* c_out = nullptr) {
  return [=](core::MacoSystem& system) {
    os::Scheduler::Options sched_options;
    sched_options.nodes = system.node_count();
    os::Scheduler scheduler(system, sched_options);
    std::vector<std::pair<core::Process*, vm::MatrixDesc>> results;
    for (unsigned n = 0; n < nodes; ++n) {
      core::Process& process = system.create_process();
      const isa::GemmParams gemm = core::build_detailed_gemm_task(
          system, process, options.shape, options, 0, 0, 0, n);
      scheduler.add_job(process).tasks.push_back(os::GemmTask{gemm});
      results.emplace_back(&process,
                           vm::MatrixDesc{gemm.c_base, gemm.m, gemm.n});
    }
    EXPECT_EQ(scheduler.run_all().tasks_completed, nodes);
    if (c_out == nullptr) return;
    for (const auto& [process, c] : results) {
      c_out->push_back(system.read_matrix(*process, c));
    }
  };
}

// ---------------- detailed machine: exact vs fast SA ----------------

// The register-level PE oracle inside the machine: the same GEMMs on a
// machine that carries values, with exact_pe_sim off and on, must give
// identical task reports and bit-identical C.
void expect_exact_pe_sim_matches(core::SystemConfig config) {
  const unsigned nodes = 2;
  config.node_count = nodes;
  const core::TimingOptions options = cube_options(96, nodes);
  std::vector<sa::HostMatrix> c_fast, c_exact;
  config.mmae.sa.exact_pe_sim = false;
  const MachineRun fast =
      run_machine(config, /*carry_values=*/true,
                  detailed_gemm_program(options, nodes, &c_fast));
  config.mmae.sa.exact_pe_sim = true;
  const MachineRun exact =
      run_machine(config, /*carry_values=*/true,
                  detailed_gemm_program(options, nodes, &c_exact));
  ASSERT_GT(fast.makespan_ps, 0u);
  EXPECT_EQ(fast.makespan_ps, exact.makespan_ps);
  EXPECT_EQ(fast.reports, exact.reports);
  ASSERT_EQ(c_fast.size(), nodes);
  ASSERT_EQ(c_exact.size(), nodes);
  for (unsigned n = 0; n < nodes; ++n) {
    ASSERT_EQ(c_fast[n].data().size(), 96u * 96u);
    EXPECT_NE(c_fast[n].at(0, 0), 0.0);  // the GEMM really computed
    EXPECT_EQ(std::memcmp(c_fast[n].data().data(), c_exact[n].data().data(),
                          c_fast[n].data().size() * sizeof(double)),
              0)
        << "node " << n;
  }
}

TEST(DetailedEquivalence, GemmMakespanMatchesDefaultBackends) {
  expect_exact_pe_sim_matches(core::SystemConfig::maco_default());
}

TEST(DetailedEquivalence, GemmMakespanMatchesDetailedBackends) {
  // The high-fidelity backends (banked DRAM + flit interconnect) ride the
  // same machine; the SA path must not perturb them either.
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.dram.kind = mem::DramKind::kQueued;
  config.icnt = noc::IcntKind::kFlit;
  expect_exact_pe_sim_matches(config);
}

// ---------------- operand values never reach timing ----------------

// Runs `program` with values on and off and requires identical timing;
// returns the values-on run for comparison against a runner.
MachineRun expect_values_never_reach_timing(const core::SystemConfig& config,
                                            const Program& program) {
  const MachineRun on = run_machine(config, /*carry_values=*/true, program);
  const MachineRun off = run_machine(config, /*carry_values=*/false, program);
  EXPECT_GT(on.makespan_ps, 0u);
  EXPECT_FALSE(on.counters.empty());
  EXPECT_EQ(on.reports, off.reports);
  EXPECT_EQ(on.makespan_ps, off.makespan_ps);
  EXPECT_EQ(on.engine_end_ps, off.engine_end_ps);
  EXPECT_EQ(on.counters, off.counters);
  return on;
}

// run_detailed_gemm's machine, with values on and off, against the runner.
void expect_detailed_gemm_point(core::SystemConfig config, std::uint64_t size,
                                unsigned nodes) {
  config.node_count = nodes;
  const core::TimingOptions options = cube_options(size, nodes);
  const MachineRun on = expect_values_never_reach_timing(
      config, detailed_gemm_program(options, nodes));

  config.profile = core::ProfileMode::kCounters;
  obs::RunObservation observation;
  observation.want_counters = true;
  const core::SystemTiming timing =
      core::run_detailed_gemm(config, options, &observation);
  EXPECT_EQ(timing.makespan_ps, on.makespan_ps);
  EXPECT_EQ(observation.counters, on.counters);
  ASSERT_EQ(timing.nodes.size(), nodes);
  for (unsigned n = 0; n < nodes; ++n) {
    const mmae::TaskReport& report = on.reports[n].back();
    EXPECT_EQ(timing.nodes[n].span_ps, report.end - report.start);
    EXPECT_EQ(timing.nodes[n].macs, report.macs);
  }
}

TEST(ValuesEquivalence, DetailedGemm256OneNode) {
  expect_detailed_gemm_point(core::SystemConfig::maco_default(), 256, 1);
}

TEST(ValuesEquivalence, DetailedGemm256FourNodes) {
  expect_detailed_gemm_point(core::SystemConfig::maco_default(), 256, 4);
}

TEST(ValuesEquivalence, DetailedGemm256SixteenNodes) {
  expect_detailed_gemm_point(core::SystemConfig::maco_default(), 256, 16);
}

TEST(ValuesEquivalence, DetailedGemm512FourNodes) {
  expect_detailed_gemm_point(core::SystemConfig::maco_default(), 512, 4);
}

TEST(ValuesEquivalence, DetailedGemmQueuedDram) {
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.dram.kind = mem::DramKind::kQueued;
  expect_detailed_gemm_point(config, 256, 4);
}

TEST(ValuesEquivalence, DetailedGemmFlitInterconnect) {
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.icnt = noc::IcntKind::kFlit;
  expect_detailed_gemm_point(config, 256, 4);
}

TEST(ValuesEquivalence, TileBatchWithOffsetsAndWarmup) {
  // run_detailed_tiles' machine: each node gets its tile's operands at
  // in-page offsets and runs a warm-up task plus the measured one. The
  // reference issues both straight through the node's CPU; the runner
  // issues them through os::Scheduler and must report the same tasks.
  std::vector<core::DetailedTask> tiles(3);
  tiles[0].shape = sa::TileShape{128, 128, 128};
  tiles[0].a_page_offset = 8;
  tiles[0].b_page_offset = 1024;
  tiles[0].c_page_offset = 4088;
  tiles[1].shape = sa::TileShape{96, 64, 160};
  tiles[1].a_page_offset = 2048;
  tiles[2].shape = sa::TileShape{64, 128, 64};
  tiles[2].c_page_offset = 512;
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.node_count = static_cast<unsigned>(tiles.size());
  core::TimingOptions options;
  options.tile_rows = 128;
  options.tile_cols = 128;

  const MachineRun on = expect_values_never_reach_timing(
      config, [&](core::MacoSystem& system) {
        for (unsigned n = 0; n < tiles.size(); ++n) {
          core::Process& process = system.create_process();
          system.schedule_process(n, process);
          const isa::GemmParams gemm = core::build_detailed_gemm_task(
              system, process, tiles[n].shape, options, tiles[n].a_page_offset,
              tiles[n].b_page_offset, tiles[n].c_page_offset, n);
          cpu::CpuCore& cpu = system.node(n).cpu();
          cpu.regs().write_param_block(10, gemm.pack());
          cpu.execute_source("ma_cfg x5, x10");  // warm-up
          cpu.execute_source("ma_cfg x5, x10");  // measured
        }
        system.run();
      });

  const std::vector<mmae::TaskReport> measured =
      core::run_detailed_tiles(config, options, tiles,
                               static_cast<unsigned>(tiles.size()));
  ASSERT_EQ(measured.size(), tiles.size());
  for (unsigned n = 0; n < tiles.size(); ++n) {
    ASSERT_EQ(on.reports[n].size(), 2u);
    EXPECT_EQ(measured[n], on.reports[n].back()) << "node " << n;
  }
}

TEST(ValuesEquivalence, ServeDetailedOracleBatch) {
  // Serve's detailed oracle: one process per instance, each submitting
  // the model's layers as GEMM tasks, all instances co-running.
  const serve::ServeModel model = serve::serve_model("tiny", 0);
  serve::CostModelOptions cost_options;
  cost_options.instances = 2;
  const unsigned batch = 8;
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.profile = core::ProfileMode::kCounters;

  const MachineRun on = expect_values_never_reach_timing(
      config, [&](core::MacoSystem& system) {
        os::Scheduler::Options sched_options;
        sched_options.nodes = system.node_count();
        os::Scheduler scheduler(system, sched_options);
        core::TimingOptions task_options;
        task_options.precision = model.precision;
        task_options.tile_rows = cost_options.tile;
        task_options.tile_cols = cost_options.tile;
        task_options.inner = cost_options.inner;
        std::uint64_t seed = 0;
        for (unsigned i = 0; i < cost_options.instances; ++i) {
          core::Process& process = system.create_process();
          os::Job& job = scheduler.add_job(process);
          for (const sa::TileShape& layer : model.layers(batch)) {
            job.tasks.push_back(os::GemmTask{core::build_detailed_gemm_task(
                system, process, layer, task_options, 0, 0, 0, seed++)});
          }
        }
        EXPECT_EQ(scheduler.run_all().tasks_failed, 0u);
      });

  const auto oracle =
      serve::make_detailed_cost_model(config, model, cost_options);
  EXPECT_EQ(oracle->batch_makespan_ps(batch), on.engine_end_ps);
  ASSERT_NE(oracle->observation(), nullptr);
  EXPECT_EQ(oracle->observation()->counters, on.counters);
}

TEST(ValuesEquivalence, MoveInitAndStashTasks) {
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.node_count = 1;
  expect_values_never_reach_timing(config, [](core::MacoSystem& system) {
    core::Process& process = system.create_process();
    system.schedule_process(0, process);
    const vm::MatrixDesc src = system.alloc_matrix(process, 48, 96);
    const vm::MatrixDesc dst = system.alloc_matrix(process, 48, 96);
    if (system.config().carry_values) {
      util::Rng rng(7);
      system.write_matrix(process, src, sa::HostMatrix::random(48, 96, rng));
    }
    cpu::CpuCore& cpu = system.node(0).cpu();

    isa::MoveParams move;
    move.src = src.base;
    move.dst = dst.base;
    move.rows = 40;
    move.row_bytes = 80 * 8;
    move.src_stride = src.stride();
    move.dst_stride = dst.stride();
    cpu.regs().write_param_block(10, move.pack());
    cpu.execute_source("ma_move x5, x10");

    isa::InitParams init;
    init.dst = src.element_addr(4, 8);
    init.rows = 32;
    init.row_bytes = 64 * 8;
    init.stride = src.stride();
    init.pattern = 0x3ff0000000000000ull;  // 1.0
    cpu.regs().write_param_block(10, init.pack());
    cpu.execute_source("ma_init x5, x10");

    isa::StashParams stash;
    stash.base = dst.base;
    stash.rows = 48;
    stash.row_bytes = 96 * 8;
    stash.stride = dst.stride();
    stash.lock = true;
    cpu.regs().write_param_block(10, stash.pack());
    cpu.execute_source("ma_stash x5, x10");
    system.run();
    EXPECT_EQ(system.node(0).mmae().reports().size(), 3u);
  });
}

TEST(ValuesEquivalence, DemandPagedGemm) {
  // A lazily backed C faults on first touch; the OS maps it and
  // re-dispatches, with values or without.
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.node_count = 1;
  const MachineRun on = expect_values_never_reach_timing(
      config, [](core::MacoSystem& system) {
        core::Process& process = system.create_process();
        const std::uint64_t dim = 96;
        const vm::MatrixDesc a = system.alloc_matrix(process, dim, dim);
        const vm::MatrixDesc b = system.alloc_matrix(process, dim, dim);
        const vm::MatrixDesc c = system.alloc_matrix_lazy(process, dim, dim);
        if (system.config().carry_values) {
          util::Rng rng(9);
          system.write_matrix(process, a,
                              sa::HostMatrix::random(dim, dim, rng));
          system.write_matrix(process, b,
                              sa::HostMatrix::random(dim, dim, rng));
        }
        isa::GemmParams gemm;
        gemm.a_base = a.base;
        gemm.b_base = b.base;
        gemm.c_base = c.base;
        gemm.m = gemm.n = gemm.k = static_cast<std::uint32_t>(dim);
        os::Scheduler scheduler(system, os::Scheduler::Options{});
        scheduler.add_job(process).tasks.push_back(os::GemmTask{gemm});
        const os::SchedulerStats stats = scheduler.run_all();
        EXPECT_EQ(stats.faults_repaired, 1u);
        EXPECT_EQ(stats.tasks_completed, 1u);
      });
  ASSERT_EQ(on.reports[0].size(), 2u);
  EXPECT_EQ(on.reports[0][0].exception, cpu::ExceptionType::kPageFault);
}

}  // namespace
}  // namespace maco

#include "core/detailed_runner.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/collector.hpp"
#include "obs/host_profile.hpp"
#include "sa/host_matrix.hpp"
#include "util/rng.hpp"
#include "vm/types.hpp"

namespace maco::core {
namespace {

// `fidelity` names the backend the user actually selected ("detailed", or
// "sampled" when the detailed machine runs underneath the estimator), so
// typed diagnostics point at the right knob value.
[[noreturn]] void unsupported(const char* fidelity, const std::string& what) {
  throw std::invalid_argument(std::string("fidelity=") + fidelity + " " +
                              what);
}

// The execution constraints shared by whole-GEMM and tile-subset runs.
void check_machine_supported(const SystemConfig& config,
                             const TimingOptions& options,
                             const char* fidelity) {
  if (!options.use_stash_lock) {
    unsupported(fidelity,
                "always models the stash+lock scheme; stash_lock=false is "
                "analytic-only");
  }
  if (options.page_bytes != 4096) {
    unsupported(fidelity,
                "uses the hardware 4 KiB page tables; page_bytes is "
                "analytic-only");
  }
  if (options.tlb_entries_override != 0 || options.engine_overlap != 1.0 ||
      options.sync_overhead_per_tile_ps != 0 ||
      options.dma_bandwidth_scale != 1.0 ||
      options.simd_ways_override != 0 || options.sa_rows_override != 0 ||
      options.sa_cols_override != 0 || options.pte_walks_warm) {
    unsupported(fidelity,
                "does not support the analytic baseline overrides");
  }
  if (options.tile_rows > 65535 || options.tile_cols > 65535 ||
      options.inner > 65535) {
    unsupported(fidelity, "encodes tile sizes in 16-bit MPAIS fields");
  }
  if (config.node_count == 0) unsupported(fidelity, "needs at least one node");
}

void check_supported(const SystemConfig& config,
                     const TimingOptions& options) {
  if (options.cooperative) {
    unsupported("detailed",
                "runs one independent GEMM per node; cooperative splitting "
                "is analytic-only (set cooperative=false, or use "
                "fidelity=sampled which estimates cooperative runs)");
  }
  check_machine_supported(config, options, "detailed");
  const std::uint64_t largest =
      std::max({options.shape.m, options.shape.n, options.shape.k});
  if (largest > kDetailedMaxDim) {
    unsupported("detailed",
                "caps each GEMM dimension at " +
                    std::to_string(kDetailedMaxDim) + " (got " +
                    std::to_string(largest) +
                    "); use fidelity=sampled for statistically-estimated "
                    "detailed numbers at this scale, or fidelity=analytic "
                    "for the closed-form model");
  }
  if (options.shape.m == 0 || options.shape.n == 0 || options.shape.k == 0) {
    unsupported("detailed", "needs a non-empty GEMM shape");
  }
}

// The report of the last task on `node` that completed without an
// exception: a repaired page fault leaves an exception report before the
// successful retry.
const mmae::TaskReport& last_clean_report(MacoSystem& system,
                                          unsigned node) {
  const mmae::TaskReport* completed = nullptr;
  for (const mmae::TaskReport& report : system.node(node).mmae().reports()) {
    if (report.exception == cpu::ExceptionType::kNone) completed = &report;
  }
  if (completed == nullptr) {
    throw std::runtime_error("detailed run failed on node " +
                             std::to_string(node) +
                             ": no completed task report");
  }
  return *completed;
}

}  // namespace

isa::GemmParams build_detailed_gemm_task(
    MacoSystem& system, Process& process, const sa::TileShape& shape,
    const TimingOptions& options, std::uint64_t a_page_offset,
    std::uint64_t b_page_offset, std::uint64_t c_page_offset,
    std::uint64_t data_seed) {
  // One extra page per matrix makes room for the in-page shift; the
  // MatrixDesc base is the shifted address, so every element access (host
  // writes and the MMAE's DMA streams alike) sees the shifted layout.
  const auto alloc_shifted = [&](std::uint64_t rows, std::uint64_t cols,
                                 std::uint64_t offset) {
    vm::MatrixDesc desc;
    if (offset == 0) {
      desc = system.alloc_matrix(process, rows, cols);
    } else {
      const std::uint64_t bytes =
          rows * cols * sizeof(double) + vm::kPageSize;
      const std::uint64_t padded_rows =
          (bytes + cols * sizeof(double) - 1) / (cols * sizeof(double));
      desc = system.alloc_matrix(process, padded_rows, cols);
      desc.rows = rows;
      desc.base += offset;
    }
    return desc;
  };

  const auto a = alloc_shifted(shape.m, shape.k, a_page_offset);
  const auto b = alloc_shifted(shape.k, shape.n, b_page_offset);
  const auto c = alloc_shifted(shape.m, shape.n, c_page_offset);
  if (system.config().carry_values) {
    util::Rng rng(0x9e3779b9u ^ data_seed);
    system.write_matrix(process, a,
                        sa::HostMatrix::random(shape.m, shape.k, rng));
    system.write_matrix(process, b,
                        sa::HostMatrix::random(shape.k, shape.n, rng));
    system.write_matrix(process, c, sa::HostMatrix(shape.m, shape.n));
  }

  isa::GemmParams gemm;
  gemm.a_base = a.base;
  gemm.b_base = b.base;
  gemm.c_base = c.base;
  gemm.m = static_cast<std::uint32_t>(shape.m);
  gemm.n = static_cast<std::uint32_t>(shape.n);
  gemm.k = static_cast<std::uint32_t>(shape.k);
  gemm.precision = options.precision;
  gemm.tile_rows = static_cast<std::uint16_t>(
      std::min<std::uint64_t>(options.tile_rows, 65535));
  gemm.tile_cols = static_cast<std::uint16_t>(
      std::min<std::uint64_t>(options.tile_cols, 65535));
  gemm.inner_tile_rows = static_cast<std::uint16_t>(options.inner);
  gemm.inner_tile_cols = static_cast<std::uint16_t>(options.inner);
  return gemm;
}

DetailedRun run_detailed_jobs(const SystemConfig& config,
                              const TimingOptions& options, unsigned nodes,
                              const std::vector<DetailedJob>& jobs,
                              const char* fidelity) {
  SystemConfig machine = config;
  machine.node_count = nodes;
  machine.mmae.use_matlb = options.use_matlb;
  machine.carry_values = false;

  obs::ScopedPhase setup_phase("setup");
  DetailedRun run;
  run.system = std::make_unique<MacoSystem>(machine);
  os::Scheduler::Options sched_options;
  sched_options.nodes = nodes;
  os::Scheduler scheduler(*run.system, sched_options);
  for (const DetailedJob& job : jobs) {
    Process& process = run.system->create_process();
    os::Job& os_job = scheduler.add_job(process);
    for (const DetailedTask& task : job.tasks) {
      const os::GemmTask gemm{build_detailed_gemm_task(
          *run.system, process, task.shape, options, task.a_page_offset,
          task.b_page_offset, task.c_page_offset, /*data_seed=*/0)};
      if (job.warm_up) os_job.tasks.push_back(gemm);
      os_job.tasks.push_back(gemm);
    }
  }
  setup_phase.stop();

  obs::ScopedPhase sim_phase("sim");
  run.stats = scheduler.run_all();
  sim_phase.stop();
  if (run.stats.tasks_failed > 0) {
    throw std::runtime_error(
        std::string("fidelity=") + fidelity + " run failed: " +
        std::to_string(run.stats.tasks_failed) +
        " task(s) raised unrepairable exceptions under the scheduler");
  }
  return run;
}

SystemTiming run_detailed_gemm(const SystemConfig& config,
                               const TimingOptions& options,
                               obs::RunObservation* observation) {
  check_supported(config, options);

  // One independent GEMM per node (Fig. 7's independent mode), each in
  // its own process and address space.
  const unsigned nodes =
      std::max(1u, std::min(options.active_nodes, config.node_count));
  const DetailedJob job{{DetailedTask{options.shape}}};
  const DetailedRun run = run_detailed_jobs(
      config, options, nodes, std::vector<DetailedJob>(nodes, job), "detailed");
  MacoSystem& system = *run.system;
  const os::SchedulerStats& sched_stats = run.stats;
  obs::ScopedPhase collect_phase("collect");

  const double peak_macs = config.mmae_peak_macs(options.precision);
  const auto tiles_along = [&](std::uint64_t extent) {
    return (extent + options.inner - 1) / options.inner;
  };
  const double inner_tiles = static_cast<double>(
      tiles_along(options.shape.m) * tiles_along(options.shape.n) *
      tiles_along(options.shape.k));

  SystemTiming timing;
  double walks = 0.0;
  double predicted = 0.0;
  double stall_ps = 0.0;
  std::uint64_t total_macs = 0;
  for (unsigned n = 0; n < nodes; ++n) {
    const mmae::TaskReport& report = last_clean_report(system, n);
    NodeTiming node;
    node.span_ps = report.end - report.start;
    node.compute_ps = report.sa_busy_ps;
    node.translation_exposed_ps = report.translation_stall_ps;
    node.macs = report.macs;
    node.efficiency = report.efficiency(peak_macs);
    node.gflops = report.duration_seconds() > 0.0
                      ? 2.0 * static_cast<double>(report.macs) /
                            report.duration_seconds() / 1e9
                      : 0.0;
    timing.makespan_ps = std::max(timing.makespan_ps, report.end);
    timing.mean_efficiency += node.efficiency;
    total_macs += report.macs;
    walks += static_cast<double>(report.blocking_walks);
    predicted += static_cast<double>(report.matlb_hits);
    stall_ps += static_cast<double>(report.translation_stall_ps);
    timing.nodes.push_back(node);
  }
  timing.mean_efficiency /= static_cast<double>(nodes);
  const double makespan_s = sim::to_seconds(timing.makespan_ps);
  timing.total_gflops =
      makespan_s > 0.0
          ? 2.0 * static_cast<double>(total_macs) / makespan_s / 1e9
          : 0.0;

  const double total_tiles = inner_tiles * static_cast<double>(nodes);
  timing.translation.walks_per_tile = walks / total_tiles;
  timing.translation.pages_per_tile = (walks + predicted) / total_tiles;
  timing.translation.stall_per_tile_ps =
      static_cast<sim::TimePs>(stall_ps / total_tiles);

  timing.os.present = true;
  timing.os.context_switches = sched_stats.context_switches;
  timing.os.mtq_full_backoffs = sched_stats.mtq_full_backoffs;
  timing.os.faults_repaired = sched_stats.faults_repaired;
  timing.os.scheduling_rounds = sched_stats.scheduling_rounds;
  timing.os.tasks_completed = sched_stats.tasks_completed;

  if (observation != nullptr) {
    if (observation->want_trace) {
      std::vector<obs::SpanRec>& spans = observation->spans;
      for (unsigned n = 0; n < nodes; ++n) {
        const std::size_t first = spans.size();
        obs::append_mmae_spans(system, n, spans);
        sim::TimePs job_start = ~sim::TimePs{0};
        sim::TimePs job_end = 0;
        for (std::size_t i = first; i < spans.size(); ++i) {
          job_start = std::min(job_start, spans[i].start);
          job_end = std::max(job_end, spans[i].end);
        }
        if (job_end > 0) {
          spans.push_back(obs::SpanRec{"os", "job" + std::to_string(n),
                                       job_start, job_end});
        }
      }
    }
    if (observation->want_counters) obs::collect(system, *observation);
  }
  return timing;
}

std::vector<mmae::TaskReport> run_detailed_tiles(
    const SystemConfig& config, const TimingOptions& options,
    const std::vector<DetailedTask>& tiles, unsigned concurrent,
    unsigned workers) {
  check_machine_supported(config, options, "sampled");
  for (const DetailedTask& tile : tiles) {
    const std::uint64_t largest =
        std::max({tile.shape.m, tile.shape.n, tile.shape.k});
    if (largest > kDetailedMaxDim) {
      unsupported("sampled",
                  "caps each tile dimension at " +
                      std::to_string(kDetailedMaxDim) + " (got " +
                      std::to_string(largest) +
                      "); shrink the first-level tile");
    }
    if (tile.shape.m == 0 || tile.shape.n == 0 || tile.shape.k == 0) {
      unsupported("sampled", "needs non-empty tile shapes");
    }
    if (tile.a_page_offset >= vm::kPageSize ||
        tile.b_page_offset >= vm::kPageSize ||
        tile.c_page_offset >= vm::kPageSize) {
      unsupported("sampled", "wants in-page offsets below the 4 KiB page "
                             "size");
    }
  }
  if (tiles.empty()) return {};

  concurrent = std::max(1u, std::min(concurrent, config.node_count));
  const std::size_t batches = (tiles.size() + concurrent - 1) / concurrent;

  std::vector<mmae::TaskReport> measured(tiles.size());

  // One batch = one fresh MacoSystem running up to `concurrent` tiles, one
  // per node, all nodes concurrently — co-scheduled tiles share the NoC,
  // the CCM slices and the DRAM channels, so contention is part of every
  // sample just as it is in a real mapped run.
  const auto run_batch = [&](std::size_t batch) {
    const std::size_t begin = batch * concurrent;
    const std::size_t end = std::min(tiles.size(), begin + concurrent);
    std::vector<DetailedJob> jobs;
    for (std::size_t i = begin; i < end; ++i) {
      jobs.push_back(DetailedJob{{tiles[i]}, /*warm_up=*/true});
    }
    const unsigned width = static_cast<unsigned>(jobs.size());
    const DetailedRun run =
        run_detailed_jobs(config, options, width, jobs, "sampled");
    for (unsigned n = 0; n < width; ++n) {
      measured[begin + n] = last_clean_report(*run.system, n);
    }
  };

  if (workers == 0) workers = std::thread::hardware_concurrency();
  workers = std::max(1u, std::min<unsigned>(
                             workers, static_cast<unsigned>(batches)));
  if (workers <= 1) {
    for (std::size_t batch = 0; batch < batches; ++batch) run_batch(batch);
  } else {
    // Batches share nothing (each owns its MacoSystem) and write disjoint
    // measurement slots, so a plain atomic cursor distributes them. The
    // first thrown error wins; remaining batches still drain.
    std::atomic<std::size_t> cursor{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    const auto worker = [&]() {
      while (true) {
        const std::size_t batch =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (batch >= batches) return;
        try {
          run_batch(batch);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  }
  return measured;
}

}  // namespace maco::core

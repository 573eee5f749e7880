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
                "runs GEMM tasks that issue no MA_STASH (a sampled tile "
                "stands in for a locked panel with a warm-up issue), so "
                "stash_lock is analytic-only");
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
  if (options.tile > 65535 || options.inner > 65535) {
    unsupported(fidelity, "encodes tile sizes in 16-bit MPAIS fields");
  }
  if (config.node_count == 0) unsupported(fidelity, "needs at least one node");
}

void check_supported(const SystemConfig& config,
                     const std::vector<sa::TileShape>& layers,
                     const TimingOptions& options) {
  if (options.cooperative) {
    unsupported("detailed",
                "runs one independent GEMM per node; cooperative splitting "
                "is analytic-only (set cooperative=false, or use "
                "fidelity=sampled which estimates cooperative runs)");
  }
  check_machine_supported(config, options, "detailed");
  if (layers.empty()) unsupported("detailed", "needs at least one GEMM");
  for (const sa::TileShape& layer : layers) {
    const std::uint64_t largest = std::max({layer.m, layer.n, layer.k});
    if (largest > kDetailedMaxDim) {
      unsupported("detailed",
                  "caps each GEMM dimension at " +
                      std::to_string(kDetailedMaxDim) + " (got " +
                      std::to_string(largest) +
                      "); use fidelity=sampled for statistically-estimated "
                      "detailed numbers at this scale, or fidelity=analytic "
                      "for the closed-form model");
    }
    if (layer.m == 0 || layer.n == 0 || layer.k == 0) {
      unsupported("detailed", "needs a non-empty GEMM shape");
    }
  }
}

// The report of the last task on `node`. run_detailed_jobs has thrown if
// any task failed, so every report on the node is a completed task's.
const mmae::TaskReport& last_report(MacoSystem& system, unsigned node) {
  const std::vector<mmae::TaskReport>& reports =
      system.node(node).mmae().reports();
  if (reports.empty()) {
    throw std::runtime_error("detailed run failed on node " +
                             std::to_string(node) + ": no task report");
  }
  return reports.back();
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
      std::min<std::uint64_t>(options.tile, 65535));
  gemm.tile_cols = gemm.tile_rows;
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
        " task(s) raised an exception or never finished under the "
        "scheduler");
  }
  return run;
}

SystemTiming run_detailed_gemm(const SystemConfig& config,
                               const std::vector<sa::TileShape>& layers,
                               const TimingOptions& options,
                               obs::RunObservation* observation) {
  check_supported(config, layers, options);

  // One independent copy of the layer list per node (Fig. 7's independent
  // mode), each in its own process and address space.
  const unsigned nodes =
      std::max(1u, std::min(options.active_nodes, config.node_count));
  const auto tiles_along = [&](std::uint64_t extent) {
    return (extent + options.inner - 1) / options.inner;
  };
  DetailedJob job;
  std::uint64_t inner_tiles = 0;
  for (const sa::TileShape& layer : layers) {
    job.tasks.push_back(DetailedTask{layer});
    inner_tiles +=
        tiles_along(layer.m) * tiles_along(layer.n) * tiles_along(layer.k);
  }
  const DetailedRun run = run_detailed_jobs(
      config, options, nodes, std::vector<DetailedJob>(nodes, job), "detailed");
  MacoSystem& system = *run.system;
  const os::SchedulerStats& sched_stats = run.stats;
  obs::ScopedPhase collect_phase("collect");

  // A node's numbers sum its tasks: one per layer, all completed (a failed
  // task has made run_detailed_jobs throw).
  const double peak_macs = config.mmae_peak_macs(options.precision);
  SystemTiming timing;
  double walks = 0.0;
  double predicted = 0.0;
  double stall_ps = 0.0;
  std::uint64_t total_macs = 0;
  for (unsigned n = 0; n < nodes; ++n) {
    NodeTiming node;
    for (const mmae::TaskReport& report : system.node(n).mmae().reports()) {
      node.span_ps += report.end - report.start;
      node.compute_ps += report.sa_busy_ps;
      node.translation_exposed_ps += report.translation_stall_ps;
      node.macs += report.macs;
      timing.makespan_ps = std::max(timing.makespan_ps, report.end);
      walks += static_cast<double>(report.blocking_walks);
      predicted += static_cast<double>(report.matlb_hits);
      stall_ps += static_cast<double>(report.translation_stall_ps);
    }
    const double span_s = sim::to_seconds(node.span_ps);
    if (span_s > 0.0) {
      node.efficiency = static_cast<double>(node.macs) / span_s / peak_macs;
      node.gflops = 2.0 * static_cast<double>(node.macs) / span_s / 1e9;
    }
    timing.mean_efficiency += node.efficiency;
    total_macs += node.macs;
    timing.nodes.push_back(node);
  }
  timing.mean_efficiency /= static_cast<double>(nodes);
  const double makespan_s = sim::to_seconds(timing.makespan_ps);
  timing.total_gflops =
      makespan_s > 0.0
          ? 2.0 * static_cast<double>(total_macs) / makespan_s / 1e9
          : 0.0;

  const double total_tiles = static_cast<double>(inner_tiles * nodes);
  timing.translation.walks_per_tile = walks / total_tiles;
  timing.translation.pages_per_tile = (walks + predicted) / total_tiles;
  timing.translation.stall_per_tile_ps =
      static_cast<sim::TimePs>(stall_ps / total_tiles);

  timing.os.present = true;
  timing.os.context_switches = sched_stats.context_switches;
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
      measured[begin + n] = last_report(*run.system, n);
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

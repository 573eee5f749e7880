// Detailed-fidelity execution: TimingOptions in, SystemTiming out.
//
// The adapter between the experiment API and MacoSystem. Every detailed
// run takes one path onto the machine, run_detailed_jobs: a fresh chip,
// one OS process per job, and os::Scheduler issuing each GEMM task through
// the real MPAIS path (MA_CFG -> MTQ -> STQ -> DMA -> systolic array ->
// memory, completions collected with MA_STATE), as a program reaches the
// MMAE in the paper (Section III.C). run_detailed_gemm runs one
// independent GEMM per active node and condenses the per-node TaskReports
// into the same SystemTiming record the analytic SystemTimingModel
// produces, so the two fidelities are interchangeable behind
// exp::ExecutionBackend; run_detailed_tiles runs a subset of first-level
// tiles for the fidelity=sampled estimator in src/sampling/; serve's
// detailed batch-cost oracle runs each model instance's layers. Timing
// never reads an operand value, so the machine is built with
// SystemConfig::carry_values off: the traffic, translation and compute
// timeline are the same, without the host cost of generating, copying and
// multiplying the data.
//
// Detailed runs are orders of magnitude slower than the closed forms, so
// the entry points enforce the analytic-only knobs and a size cap with
// typed diagnostics instead of silently mis-modeling or running for hours.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/maco_system.hpp"
#include "core/timing_model.hpp"
#include "isa/params.hpp"
#include "obs/observation.hpp"
#include "os/scheduler.hpp"

namespace maco::core {

// Largest per-dimension GEMM size run_detailed_gemm accepts (a full
// detailed node at this size already simulates hundreds of inner tiles).
inline constexpr std::uint64_t kDetailedMaxDim = 2048;

// Throws std::invalid_argument when `options` asks for something the
// detailed machine cannot honor (cooperative splitting, stash_lock=false,
// tlb/overlap baseline overrides, a dimension beyond kDetailedMaxDim).
// Execution is driven through os::Scheduler (one single-task job per
// active node), so the returned SystemTiming carries the OS counters in
// `timing.os`.
//
// With a non-null `observation` the run additionally captures what its
// want_* flags ask for — component counters and NoC traffic
// (want_counters, meaningful under config.profile=counters) and per-node
// MMAE task spans plus OS job spans (want_trace). Capture happens after
// the engine quiesces and never changes the returned timing.
SystemTiming run_detailed_gemm(const SystemConfig& config,
                               const TimingOptions& options,
                               obs::RunObservation* observation = nullptr);

// Allocates the three operand matrices of one GEMM task in `process`
// (shifted into their pages by the byte offsets) and returns the MA_CFG
// parameter block — without issuing it. On a machine that carries values
// it also writes random A and B from `data_seed` and a zero C; otherwise
// `data_seed` is unused. run_detailed_jobs issues the block as an
// os::GemmTask.
isa::GemmParams build_detailed_gemm_task(
    MacoSystem& system, Process& process, const sa::TileShape& shape,
    const TimingOptions& options, std::uint64_t a_page_offset,
    std::uint64_t b_page_offset, std::uint64_t c_page_offset,
    std::uint64_t data_seed);

// One GEMM task: its shape and the in-page byte offsets of its operands.
// For a first-level tile the offsets reproduce where the tile's operand
// sub-blocks would start inside the full matrices, so translation
// behaviour (page touches, sTLB/mATLB hits) varies with tile position
// exactly as it would in a monolithic run.
struct DetailedTask {
  sa::TileShape shape;
  std::uint64_t a_page_offset = 0;  // bytes, < 4 KiB, 8-byte aligned
  std::uint64_t b_page_offset = 0;
  std::uint64_t c_page_offset = 0;
};

// One OS process and the GEMM tasks it issues, in order. With `warm_up`
// each task is issued twice on the same operands, and the second issue
// runs in warm TLB/PTW/L3 state — the steady state an interior tile of a
// long mapped run executes in (the stash+lock discipline keeps panels
// L3-resident between tiles).
struct DetailedJob {
  std::vector<DetailedTask> tasks;
  bool warm_up = false;
};

// A finished detailed run: the machine, for its task reports and
// counters, and what the scheduler counted.
struct DetailedRun {
  std::unique_ptr<MacoSystem> system;
  os::SchedulerStats stats;
};

// The one path onto the detailed machine. Builds a fresh value-free
// `nodes`-node machine from `config` (with options.use_matlb), one process
// per job with every task's operands allocated once, then lets
// os::Scheduler issue the tasks and run the engine dry. The "setup" host
// phase covers machine construction and task building, "sim" the run.
// Throws std::runtime_error naming `fidelity` when a task fails. With at
// most one job per node and at most two tasks per job, every job runs on
// the node of its own index.
DetailedRun run_detailed_jobs(const SystemConfig& config,
                              const TimingOptions& options, unsigned nodes,
                              const std::vector<DetailedJob>& jobs,
                              const char* fidelity);

// Executes an arbitrary set of first-level tiles on the detailed system
// and returns the report of each tile's measured task, in tile order. Each
// tile is a warm-up job (DetailedJob::warm_up). Tiles run `concurrent` at
// a time (one per node of a fresh machine, so co-scheduled tiles contend
// for the NoC/CCM/DRAM like a real mapped run); `workers` batches may be
// simulated on parallel host threads (each batch owns its machine —
// nothing is shared; 0 means one per hardware thread, and the count never
// exceeds the batch count). Throws std::invalid_argument on unsupported
// options or a tile dimension beyond kDetailedMaxDim.
std::vector<mmae::TaskReport> run_detailed_tiles(
    const SystemConfig& config, const TimingOptions& options,
    const std::vector<DetailedTask>& tiles, unsigned concurrent = 1,
    unsigned workers = 1);

}  // namespace maco::core

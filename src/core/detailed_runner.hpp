// Detailed-fidelity GEMM execution: TimingOptions in, SystemTiming out.
//
// The adapter between the experiment API and MacoSystem: it instantiates
// the whole chip, programs one independent GEMM per active node through the
// real MPAIS path (MA_CFG -> MTQ -> STQ -> DMA -> systolic array -> memory)
// and condenses the per-node TaskReports into the same SystemTiming record
// the analytic SystemTimingModel produces, so the two fidelities are
// interchangeable behind exp::ExecutionBackend. Timing never reads an
// operand value, so both entry points build their machines with
// SystemConfig::carry_values off: the traffic, translation and compute
// timeline are the same, without the host cost of generating, copying and
// multiplying the data.
//
// Detailed runs are orders of magnitude slower than the closed forms, so
// the entry point enforces the analytic-only knobs and a size cap with
// typed diagnostics instead of silently mis-modeling or running for hours.
// Beyond the cap, run_detailed_tiles executes an arbitrary subset of
// first-level tiles (each a small GEMM task) — the measurement primitive of
// the fidelity=sampled estimator in src/sampling/, which lifts the cap by
// simulating a stratified sample of the tile grid instead of all of it.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/timing_model.hpp"
#include "isa/params.hpp"
#include "obs/observation.hpp"

namespace maco::core {

class MacoSystem;
struct Process;

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
// `data_seed` is unused. Dispatch belongs to the caller: directly through
// a node's CPU, or as an os::GemmTask under the scheduler
// (run_detailed_gemm, serve's detailed batch-cost oracle).
isa::GemmParams build_detailed_gemm_task(
    MacoSystem& system, Process& process, const sa::TileShape& shape,
    const TimingOptions& options, std::uint64_t a_page_offset,
    std::uint64_t b_page_offset, std::uint64_t c_page_offset,
    std::uint64_t data_seed);

// One first-level tile to execute as its own GEMM task. The in-page byte
// offsets reproduce where the tile's operand sub-blocks would start inside
// the full matrices, so translation behaviour (page touches, sTLB/mATLB
// hits) varies with tile position exactly as it would in a monolithic run.
struct DetailedTileJob {
  sa::TileShape shape;
  std::uint64_t a_page_offset = 0;  // bytes, < 4 KiB, 8-byte aligned
  std::uint64_t b_page_offset = 0;
  std::uint64_t c_page_offset = 0;
  // Identical tasks issued (and discarded) before the measured one, so the
  // measurement sees warm TLB/PTW/L3 state — the steady state an interior
  // tile of a long mapped run executes in (the stash+lock discipline keeps
  // panels L3-resident between tiles).
  unsigned warmup_tasks = 1;
};

// What the measured (post-warmup) task of one tile job reported.
struct DetailedTileMeasurement {
  sim::TimePs span_ps = 0;               // steady-state task span
  sim::TimePs sa_busy_ps = 0;
  sim::TimePs translation_stall_ps = 0;
  std::uint64_t macs = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t blocking_walks = 0;
  std::uint64_t matlb_hits = 0;
};

// Executes an arbitrary set of tile GEMMs on the detailed system and
// returns one measurement per job, in job order. Jobs run `concurrent` at
// a time (one per node of a fresh MacoSystem instantiation, so co-scheduled
// tiles contend for the NoC/CCM/DRAM like a real mapped run); `workers`
// batches may be simulated on parallel host threads (each batch owns its
// system — nothing is shared; 0 means one per hardware thread, and the
// count never exceeds the batch count). Throws std::invalid_argument on
// unsupported options or a tile dimension beyond kDetailedMaxDim.
std::vector<DetailedTileMeasurement> run_detailed_tiles(
    const SystemConfig& config, const TimingOptions& options,
    const std::vector<DetailedTileJob>& jobs, unsigned concurrent = 1,
    unsigned workers = 1);

}  // namespace maco::core

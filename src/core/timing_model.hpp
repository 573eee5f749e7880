// System-level GEMM timing model.
//
// Register-level simulation of a 9216³ GEMM is intractable, so the paper
// figures use this model (fidelity=analytic): per-inner-tile systolic
// latency comes from the closed form validated against the cycle-accurate
// array; translation behaviour comes from simulating the real sTLB over the
// exact page-touch sequence the DMA streams generate
// (vm::for_each_page_entry); NoC contention comes from the X-Y link-load
// model validated against the flit-level mesh; DRAM pressure from the
// channel bandwidth model. Baselines parameterize the same model
// (coupling, overlap, translation policy) rather than hard-coding ratios.
//
// A model instance memoizes run()'s translation estimates: the sTLB
// simulation is a pure function of the node shape and the translation
// options it reads, and a DNN repeats few shapes over many layers, so each
// distinct estimate is simulated once and later calls reuse it. run() stays
// const and safe to call from several threads on one shared model.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "core/config.hpp"
#include "sa/latency_model.hpp"

namespace maco::core {

struct TimingOptions {
  sa::TileShape shape;  // the GEMM each node runs (independent mode) or the
                        // whole GEMM split over nodes (cooperative mode)
  sa::Precision precision = sa::Precision::kFp64;
  unsigned active_nodes = 1;
  bool cooperative = false;

  bool use_matlb = true;      // predictive address translation (Fig. 4/6)
  bool use_stash_lock = true; // L3 prefetch + lock mapping scheme (§IV.B)

  // First/second-level square tiles (paper: <1024,1024> / <64,64>).
  std::uint64_t tile = 1024;
  std::uint64_t inner = 64;
  // Translation page size (what-if studies; the paper and hardware use 4 KiB).
  std::uint64_t page_bytes = 4096;

  // Baseline knobs (MACO defaults):
  std::size_t tlb_entries_override = 0;  // 0 => config's shared TLB size
  double engine_overlap = 1.0;   // fraction of DMA hidden under compute;
                                 // <1 models tightly-coupled contention
  sim::TimePs sync_overhead_per_tile_ps = 0;  // fence-style per-tile sync
  double dma_bandwidth_scale = 1.0;  // <1: engine fed through a narrower port
  unsigned simd_ways_override = 0;   // 0 => from precision. Fig. 8 uses 1 to
                                     // normalize all systems to 16×16 PEs.
  // Array geometry override (0 = config). Fig. 8's comparators are
  // single-node systems with one 16×16 array at the same total PE count.
  unsigned sa_rows_override = 0;
  unsigned sa_cols_override = 0;
  // Per-walk leaf-PTE latency policy. Default: heuristic (cold when walks
  // recur enough to thrash the L3's page-table lines, warm otherwise).
  bool pte_walks_warm = false;  // walks ride the host MMU's page-walk
                                // caches (in-core / host-PTW engines)

  // fidelity=sampled knobs (read only by the sampled estimator; the other
  // backends ignore them, so a fidelity sweep can carry them harmlessly).
  double sample_frac = 0.05;      // fraction of each stratum simulated
  std::uint64_t sample_seed = 1;  // stratified-draw seed (deterministic)
  double ci_target = 0.0;         // >0: adaptive sampling until the relative
                                  // 95% statistical CI half-width <= target
  unsigned sample_workers = 0;    // concurrent tile-batch simulations;
                                  // 0 = one per hardware thread
};

struct TranslationEstimate {
  double pages_per_tile = 0.0;        // page touches per inner tile
  double walks_per_tile = 0.0;        // sTLB misses per inner tile
  sim::TimePs stall_per_tile_ps = 0;  // blocking-walk latency per tile
};

struct NodeTiming {
  sim::TimePs span_ps = 0;
  sim::TimePs compute_ps = 0;      // systolic-array busy time
  sim::TimePs dma_tile_ps = 0;     // steady-state DMA time per tile
  sim::TimePs translation_exposed_ps = 0;  // total stall on the critical path
  std::uint64_t macs = 0;
  double efficiency = 0.0;  // vs the node's peak at this precision
  double gflops = 0.0;
};

// Statistical qualifiers a sampled-fidelity estimate carries alongside the
// point values; sampled_tiles == 0 on exhaustive (analytic/detailed) runs.
struct SamplingStats {
  std::uint64_t total_tiles = 0;    // tile-space size of the estimation
  std::uint64_t sampled_tiles = 0;  // tiles actually simulated
  std::uint64_t strata = 0;         // position/layer classes
  double makespan_se_ps = 0.0;      // standard error of makespan_ps
  double makespan_ci95_ps = 0.0;    // 95% half-width (statistical + model
                                    // margin; see sampling/estimator.hpp)

  bool present() const noexcept { return sampled_tiles > 0; }
  double rel_ci95(double makespan_ps_value) const noexcept {
    return makespan_ps_value > 0.0 ? makespan_ci95_ps / makespan_ps_value
                                   : 0.0;
  }
};

// Software-scheduler counters carried by runs driven through os::Scheduler
// (fidelity=detailed); present=false on closed-form and sampled estimates,
// which never enter the OS layer. A plain mirror of os::SchedulerStats so
// the core timing types stay below the OS layer in the include graph,
// without its MTQ-backoff count: a detailed run holds at most two tasks
// per node against an 8-entry MTQ, so it always reads 0.
struct OsStats {
  bool present = false;
  std::uint64_t context_switches = 0;
  std::uint64_t scheduling_rounds = 0;
  std::uint64_t tasks_completed = 0;
};

struct SystemTiming {
  std::vector<NodeTiming> nodes;
  double mean_efficiency = 0.0;  // average per-node efficiency (Fig. 7 y-axis)
  double total_gflops = 0.0;     // aggregate throughput (Fig. 8 y-axis)
  sim::TimePs makespan_ps = 0;
  TranslationEstimate translation;
  SamplingStats sampling;        // fidelity=sampled only
  OsStats os;                    // fidelity=detailed only
};

class SystemTimingModel {
 public:
  explicit SystemTimingModel(const SystemConfig& config);

  // Throws std::invalid_argument naming the field when `options` cannot
  // describe a run (no or too many active nodes, a zero GEMM dimension,
  // inner or page size).
  SystemTiming run(const TimingOptions& options) const;

  // Runs a sequence of GEMM layers (a DNN) back to back on the active
  // nodes, split across them or one copy per node as options.cooperative
  // says. Returns aggregate throughput over the whole network, and its
  // translations per inner tile: each layer's per-tile estimate weighted
  // by its inner-tile count. `nodes` describes the last layer.
  // Throws std::invalid_argument on an empty list or a bad layer.
  SystemTiming run_layers(const std::vector<sa::TileShape>& layers,
                          TimingOptions options) const;

  // Exposed for tests: the sTLB/page-geometry simulation, uncached.
  TranslationEstimate estimate_translation(const TimingOptions& options,
                                           const sa::TileShape& node_shape)
      const;

  // Total systolic cycles to sweep `shape` in inner³ tiles (edge-exact).
  std::uint64_t aggregate_sa_cycles(const sa::TileShape& shape,
                                    const TimingOptions& options) const;

  const SystemConfig& config() const noexcept { return config_; }

 private:
  // Every input the translation estimate reads besides config_, resolved:
  // the per-node shape, the sTLB size after the override and the element
  // size of the precision.
  struct TranslationKey {
    std::uint64_t m = 0;
    std::uint64_t n = 0;
    std::uint64_t k = 0;
    std::uint64_t inner = 0;
    std::uint64_t elem_bytes = 0;
    std::uint64_t page_bytes = 0;
    std::size_t tlb_entries = 0;
    bool pte_walks_warm = false;
    auto operator<=>(const TranslationKey&) const = default;
  };

  unsigned effective_ways(const TimingOptions& options) const noexcept;
  sa::SaConfig sa_config_for(const TimingOptions& options) const noexcept;
  TranslationKey translation_key(const TimingOptions& options,
                                 const sa::TileShape& node_shape) const;
  TranslationEstimate simulate_translation(const TranslationKey& key) const;
  TranslationEstimate memoized_translation(const TranslationKey& key) const;

  SystemConfig config_;
  // run()'s translation estimates. config_ never changes, so an estimate is
  // a pure function of its key and a hit equals a fresh simulation.
  mutable std::mutex translations_mutex_;
  mutable std::map<TranslationKey, TranslationEstimate> translations_;
};

}  // namespace maco::core

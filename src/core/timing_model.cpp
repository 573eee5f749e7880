#include "core/timing_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/gemm_mapper.hpp"
#include "noc/link_load_model.hpp"
#include "sa/systolic_array.hpp"
#include "util/bits.hpp"
#include "vm/matlb.hpp"
#include "vm/tlb.hpp"

namespace maco::core {
namespace {

// TimingOptions come from user input (scenario knobs, lowered manifests), so
// a value no run can use is a typed error the sweep runner turns into an
// error row, not an abort.
void validate_options(const TimingOptions& options, unsigned node_count) {
  const auto reject = [](const std::string& field, std::uint64_t value,
                         const std::string& rule) {
    throw std::invalid_argument("timing model: " + field + " = " +
                                std::to_string(value) + " " + rule);
  };
  if (options.active_nodes < 1 || options.active_nodes > node_count) {
    reject("active_nodes", options.active_nodes,
           "is outside [1, node_count = " + std::to_string(node_count) +
               "]");
  }
  const std::pair<const char*, std::uint64_t> positive[] = {
      {"shape.m", options.shape.m}, {"shape.n", options.shape.n},
      {"shape.k", options.shape.k}, {"inner", options.inner},
      {"page_bytes", options.page_bytes}};
  for (const auto& [field, value] : positive) {
    if (value == 0) reject(field, value, "must be positive");
  }
}

}  // namespace

SystemTimingModel::SystemTimingModel(const SystemConfig& config)
    : config_(config) {}

unsigned SystemTimingModel::effective_ways(
    const TimingOptions& options) const noexcept {
  return options.simd_ways_override ? options.simd_ways_override
                                    : sa::simd_ways(options.precision);
}

sa::SaConfig SystemTimingModel::sa_config_for(
    const TimingOptions& options) const noexcept {
  sa::SaConfig sa = config_.mmae.sa;
  sa.precision = options.precision;
  if (options.sa_rows_override) sa.rows = options.sa_rows_override;
  if (options.sa_cols_override) sa.cols = options.sa_cols_override;
  return sa;
}

std::uint64_t SystemTimingModel::aggregate_sa_cycles(
    const sa::TileShape& shape, const TimingOptions& options) const {
  const std::uint64_t i = options.inner;
  const sa::SaConfig sa = sa_config_for(options);
  const std::uint64_t ways = effective_ways(options);
  const std::uint64_t p_rows = sa.rows;
  const std::uint64_t p_cols = sa.cols;

  // Same closed form as sa::compute_sa_timing, parameterized on `ways` so
  // the Fig. 8 PE normalization (simd_ways_override = 1) can be applied;
  // tests assert agreement with the validated model when ways match.
  auto tile_cycles = [&](std::uint64_t m, std::uint64_t n,
                         std::uint64_t k) -> std::uint64_t {
    const std::uint64_t kb = util::ceil_div(k, p_rows);
    const std::uint64_t nb = util::ceil_div(n, p_cols);
    std::uint64_t slots = util::ceil_div(m, ways);
    if (kb > 1 && nb * slots < p_rows) {
      slots = util::ceil_div(p_rows, nb);  // C-buffer RAW hazard padding
    }
    const std::uint64_t stream =
        kb * nb * slots + (p_rows - 1) + (p_cols - 1);
    const std::uint64_t preload =
        sa.double_buffered_b ? p_rows : kb * nb * p_rows;
    return stream + preload;
  };

  // Tile the shape into inner³ blocks; at most 8 distinct block shapes.
  auto split = [&](std::uint64_t extent) {
    return std::pair<std::uint64_t, std::uint64_t>{extent / i, extent % i};
  };
  const auto [fm, rm] = split(shape.m);
  const auto [fn, rn] = split(shape.n);
  const auto [fk, rk] = split(shape.k);

  std::uint64_t total = 0;
  for (const auto& [count_m, dim_m] :
       {std::pair{fm, i}, std::pair{std::uint64_t(rm ? 1 : 0), rm}}) {
    for (const auto& [count_n, dim_n] :
         {std::pair{fn, i}, std::pair{std::uint64_t(rn ? 1 : 0), rn}}) {
      for (const auto& [count_k, dim_k] :
           {std::pair{fk, i}, std::pair{std::uint64_t(rk ? 1 : 0), rk}}) {
        const std::uint64_t count = count_m * count_n * count_k;
        if (count == 0) continue;
        total += count * tile_cycles(dim_m, dim_n, dim_k);
      }
    }
  }
  return total;
}

SystemTimingModel::TranslationKey SystemTimingModel::translation_key(
    const TimingOptions& options, const sa::TileShape& node_shape) const {
  TranslationKey key;
  key.m = node_shape.m;
  key.n = node_shape.n;
  key.k = node_shape.k;
  key.inner = options.inner;
  key.elem_bytes = sa::element_bytes(options.precision);
  key.page_bytes = options.page_bytes;
  key.tlb_entries = options.tlb_entries_override
                        ? options.tlb_entries_override
                        : config_.cpu.mmu.l2_tlb_entries;
  key.pte_always_cold = options.pte_always_cold;
  key.pte_walks_warm = options.pte_walks_warm;
  return key;
}

TranslationEstimate SystemTimingModel::estimate_translation(
    const TimingOptions& options, const sa::TileShape& node_shape) const {
  return simulate_translation(translation_key(options, node_shape));
}

TranslationEstimate SystemTimingModel::memoized_translation(
    const TranslationKey& key) const {
  {
    const std::lock_guard<std::mutex> lock(translations_mutex_);
    const auto it = translations_.find(key);
    if (it != translations_.end()) return it->second;
  }
  // Simulated outside the lock so callers on other shapes never wait on it;
  // a racing caller on the same key computes the same value.
  const TranslationEstimate estimate = simulate_translation(key);
  const std::lock_guard<std::mutex> lock(translations_mutex_);
  translations_.emplace(key, estimate);
  return estimate;
}

TranslationEstimate SystemTimingModel::simulate_translation(
    const TranslationKey& key) const {
  TranslationEstimate estimate;
  const std::uint64_t i = key.inner;
  const std::uint64_t elem = key.elem_bytes;
  const sa::TileShape node_shape{key.m, key.n, key.k};

  // Synthetic address space: bases far apart so pages never alias.
  const vm::MatrixDesc a{0x100000000000ull, node_shape.m, node_shape.k, elem,
                         0};
  const vm::MatrixDesc b{0x200000000000ull, node_shape.k, node_shape.n, elem,
                         0};
  const vm::MatrixDesc c{0x300000000000ull, node_shape.m, node_shape.n, elem,
                         0};

  vm::Tlb stlb("estimate.stlb", key.tlb_entries);
  const vm::Asid asid = 1;

  std::uint64_t tiles_seen = 0;
  std::uint64_t measured_tiles = 0;
  std::uint64_t measured_pages = 0;
  std::uint64_t measured_walks = 0;

  // Steady-state measurement: compulsory first-touch walks happen once per
  // page over the whole GEMM (and are pre-walked by the stash stream), so
  // the cost that matters is the *recurring* miss rate. Small shapes are
  // warmed with one complete sweep and measured over a second; shapes too
  // large to sweep within the budget are measured mid-first-pass, where
  // recurring misses dominate anyway.
  const std::uint64_t total_tiles = util::ceil_div(node_shape.m, i) *
                                    util::ceil_div(node_shape.n, i) *
                                    util::ceil_div(node_shape.k, i);
  constexpr std::uint64_t kTileCap = 3072;
  const bool two_sweeps = total_tiles <= kTileCap;
  const std::uint64_t warmup = two_sweeps ? total_tiles : kTileCap / 2;
  const std::uint64_t budget =
      two_sweeps ? 2 * total_tiles : kTileCap;

  auto touch_region = [&](const vm::MatrixDesc& m, const vm::TileDesc& t,
                          bool measure) {
    vm::for_each_page_entry(m, t, key.page_bytes, [&](vm::VirtAddr va) {
      const std::uint64_t vpn = va / key.page_bytes;
      if (measure) ++measured_pages;
      if (!stlb.lookup(asid, vpn)) {
        stlb.insert(asid, vpn, vpn);  // identity fill: only reach matters
        if (measure) ++measured_walks;
      }
    });
  };

  bool done = false;
  for (int sweep = 0; sweep < 2 && !done; ++sweep) {
    for (std::uint64_t mm = 0; mm < node_shape.m && !done; mm += i) {
      const std::uint64_t mrows = std::min(i, node_shape.m - mm);
      for (std::uint64_t nn = 0; nn < node_shape.n && !done; nn += i) {
        const std::uint64_t ncols = std::min(i, node_shape.n - nn);
        for (std::uint64_t kk = 0; kk < node_shape.k && !done; kk += i) {
          const std::uint64_t kdepth = std::min(i, node_shape.k - kk);
          const bool measure = tiles_seen >= warmup;
          touch_region(a, vm::TileDesc{mm, kk, mrows, kdepth}, measure);
          touch_region(b, vm::TileDesc{kk, nn, kdepth, ncols}, measure);
          if (kk == 0) {
            touch_region(c, vm::TileDesc{mm, nn, mrows, ncols}, measure);
          }
          if (measure) ++measured_tiles;
          ++tiles_seen;
          if (tiles_seen >= budget) done = true;
        }
      }
    }
  }

  if (measured_tiles == 0) return estimate;
  estimate.pages_per_tile =
      static_cast<double>(measured_pages) / static_cast<double>(measured_tiles);
  estimate.walks_per_tile =
      static_cast<double>(measured_walks) / static_cast<double>(measured_tiles);

  // Per-walk leaf-PTE latency. Engines that walk through the host MMU's
  // page-walk caches stay warm; a standalone walker is always cold; by
  // default the leaf is cold once walks recur enough that the data stream
  // evicts the page-table lines from L3.
  sim::TimePs per_walk;
  if (key.pte_always_cold) {
    per_walk = config_.pte_cold_latency_ps;
  } else if (key.pte_walks_warm) {
    per_walk = config_.pte_warm_latency_ps;
  } else {
    per_walk = estimate.walks_per_tile > 4.0 ? config_.pte_cold_latency_ps
                                             : config_.pte_warm_latency_ps;
  }
  estimate.stall_per_tile_ps = static_cast<sim::TimePs>(
      estimate.walks_per_tile * static_cast<double>(per_walk));
  return estimate;
}

SystemTiming SystemTimingModel::run(const TimingOptions& options) const {
  validate_options(options, config_.node_count);

  // Per-node shape.
  sa::TileShape node_shape = options.shape;
  if (options.cooperative && options.active_nodes > 1) {
    const auto [gr, gc] = choose_grid(options.active_nodes);
    node_shape.m = util::ceil_div(options.shape.m, gr);
    node_shape.n = util::ceil_div(options.shape.n, gc);
  }

  const std::uint64_t i = options.inner;
  const unsigned ways = effective_ways(options);
  const std::uint64_t elem = sa::element_bytes(options.precision);
  const double mmae_hz = config_.mmae.frequency_hz;
  const sa::SaConfig sa = sa_config_for(options);
  const double peak_macs_node = mmae_hz * sa.rows * sa.cols * ways;

  // ---- Compute time ----
  const std::uint64_t total_cycles = aggregate_sa_cycles(node_shape, options);
  const double compute_ps_total =
      static_cast<double>(total_cycles) * 1e12 / mmae_hz;
  const std::uint64_t n_tiles = util::ceil_div(node_shape.m, i) *
                                util::ceil_div(node_shape.n, i) *
                                util::ceil_div(node_shape.k, i);
  const double compute_tile_ps = compute_ps_total / static_cast<double>(n_tiles);

  // ---- DMA bytes ----
  const std::uint64_t k_tiles = util::ceil_div(node_shape.k, i);
  const double bytes_tile =
      static_cast<double>(elem) *
      (static_cast<double>(i) * i +      // A tile
       static_cast<double>(i) * i +      // B tile
       2.0 * i * i / static_cast<double>(k_tiles));  // C load+store amortized

  // ---- Translation behaviour ----
  const TranslationEstimate translation =
      memoized_translation(translation_key(options, node_shape));

  // ---- L3 / DRAM sourcing ----
  // Panel working set per node vs its L3 share decides how much of the tile
  // traffic re-streams from DRAM.
  const double panel_ws =
      static_cast<double>(elem) *
      (static_cast<double>(options.tile_rows) * node_shape.k +
       static_cast<double>(node_shape.k) * options.tile_cols +
       static_cast<double>(options.tile_rows) * options.tile_cols);
  const double l3_share = static_cast<double>(config_.l3_total_bytes()) /
                          options.active_nodes;
  double dram_fraction;
  if (!options.use_stash_lock) {
    // Without the stash+lock mapping scheme nothing guarantees residency:
    // tile loads stream from DRAM (compulsory + conflict).
    dram_fraction = 1.0;
  } else if (panel_ws <= l3_share) {
    // Panels locked in L3: only compulsory traffic reaches DRAM.
    const double total_l3_traffic = bytes_tile * static_cast<double>(n_tiles);
    const double compulsory =
        static_cast<double>(elem) *
        (static_cast<double>(node_shape.m) * node_shape.k +
         static_cast<double>(node_shape.k) * node_shape.n +
         2.0 * node_shape.m * node_shape.n);
    dram_fraction = std::min(1.0, compulsory / total_l3_traffic);
  } else {
    dram_fraction = std::clamp(1.0 - l3_share / panel_ws, 0.0, 1.0);
  }

  // ---- Fixed-point on tile time with NoC + DRAM contention ----
  double link_bw =
      config_.node_link_bandwidth() * options.dma_bandwidth_scale * 0.9;
  if (!options.use_stash_lock) {
    // Without stash+lock tile reads are DRAM round trips; the DMA queues
    // (sized to the array they feed) bound the outstanding bytes, so the
    // sustainable rate is inflight / loaded latency (Little's law).
    const double inflight_bytes = static_cast<double>(
        config_.dma_inflight_bytes_per_pe * sa.rows * sa.cols);
    const double loaded_rt_ps =
        static_cast<double>(config_.dram.access_latency_ps) *
            config_.dram_row_miss_factor +
        8.0 * static_cast<double>(config_.noc_hop_ps) + 10'000.0;
    link_bw = std::min(link_bw, inflight_bytes / (loaded_rt_ps * 1e-12));
  }
  double tile_time = std::max(compute_tile_ps, 1.0);
  double dma_tile = 0.0;
  for (int iter = 0; iter < 6; ++iter) {
    const double byte_rate = bytes_tile / (tile_time * 1e-12);  // B/s

    // NoC: responses flow from every L3 slice (address-interleaved) to each
    // active node, and DDR fills flow from the edge controllers into the
    // home slices.
    noc::LinkLoadModel loads(config_.link_load);
    for (unsigned nid = 0; nid < options.active_nodes; ++nid) {
      for (unsigned slice = 0; slice < config_.ccm_count; ++slice) {
        loads.add_flow(static_cast<noc::NodeId>(slice),
                       static_cast<noc::NodeId>(nid),
                       byte_rate / config_.ccm_count);
      }
    }
    const double fill_rate_per_slice =
        byte_rate * dram_fraction * options.active_nodes / config_.ccm_count;
    for (unsigned slice = 0; slice < config_.ccm_count; ++slice) {
      const noc::NodeId ddr =
          config_.dram_node_ids[slice % config_.dram_node_ids.size()];
      loads.add_flow(ddr, static_cast<noc::NodeId>(slice),
                     fill_rate_per_slice);
    }
    const double noc_util = loads.max_utilization() *
                            config_.node_link_bandwidth() / link_bw;
    const double noc_scale = noc_util > 1.0 ? 1.0 / noc_util : 1.0;

    const double t_noc = bytes_tile / (link_bw * noc_scale) * 1e12;
    // Effective DDR supply per active node (pin bandwidth derated by row
    // miss / refresh / turnaround losses).
    const double dram_bw_node = config_.dram_total_bandwidth() *
                                config_.dram_efficiency /
                                options.active_nodes;
    const double t_dram =
        dram_fraction > 0.0
            ? bytes_tile * dram_fraction / dram_bw_node * 1e12
            : 0.0;
    // Without stash, first-touch DRAM latency is exposed per burst row.
    const double latency_exposure =
        options.use_stash_lock
            ? 0.0
            : 2.0 * static_cast<double>(config_.dram.access_latency_ps) *
                  dram_fraction;

    dma_tile = std::max(t_noc, t_dram) + latency_exposure;

    // Translation. With mATLB the walks run ahead during the previous
    // tile's compute slack; only overflow work leaks onto the critical path
    // (and the walker pipelines it, hence the 0.1 residue). Without mATLB
    // each walk blocks the DMA stream (serialized into dma_tile) and leaves
    // an unhideable issue bubble on the array.
    double translation_exposed = 0.0;
    double compute_eff = compute_tile_ps;
    if (!options.use_matlb) {
      const double stall = static_cast<double>(translation.stall_per_tile_ps);
      // The array-issue bubble applies to standalone walkers whose misses
      // halt the operand stream; engines translating through the host MMU's
      // page-walk caches replay in-pipeline and only pay the stream stall.
      const double bubbles =
          options.pte_walks_warm
              ? 0.0
              : translation.walks_per_tile *
                    static_cast<double>(config_.pte_exposed_bubble_ps);
      translation_exposed = bubbles;
      dma_tile += stall;
      compute_eff += bubbles;
    } else {
      const double hidden_budget = std::max(0.0, compute_tile_ps - dma_tile);
      const double walk_work =
          static_cast<double>(translation.stall_per_tile_ps);
      translation_exposed = std::max(0.0, walk_work - hidden_budget) * 0.1;
      dma_tile += translation_exposed;
    }

    // Compute/DMA overlap: a loosely-coupled engine hides min(dma, compute);
    // tighter coupling (engine_overlap < 1) exposes part of the DMA.
    const double o = options.engine_overlap;
    double t = std::max(compute_eff, o * dma_tile) + (1.0 - o) * dma_tile;
    t += static_cast<double>(options.sync_overhead_per_tile_ps);
    if (std::abs(t - tile_time) < 1.0) {
      tile_time = t;
      break;
    }
    tile_time = t;
  }

  // ---- Assemble ----
  SystemTiming result;
  result.translation = translation;
  const double span_ps = tile_time * static_cast<double>(n_tiles);
  const std::uint64_t macs_node = node_shape.macs();
  const double eff =
      static_cast<double>(macs_node) / (span_ps * 1e-12) / peak_macs_node;

  result.nodes.resize(options.active_nodes);
  for (auto& node : result.nodes) {
    node.span_ps = static_cast<sim::TimePs>(span_ps);
    node.compute_ps = static_cast<sim::TimePs>(compute_ps_total);
    node.dma_tile_ps = static_cast<sim::TimePs>(dma_tile);
    node.translation_exposed_ps = static_cast<sim::TimePs>(
        static_cast<double>(translation.stall_per_tile_ps) *
        static_cast<double>(n_tiles));
    node.macs = macs_node;
    node.efficiency = eff;
    node.gflops = 2.0 * static_cast<double>(macs_node) / (span_ps * 1e-12) /
                  1e9;
  }
  result.mean_efficiency = eff;
  result.makespan_ps = static_cast<sim::TimePs>(span_ps);
  // Cooperative: aggregate covers the whole original GEMM; independent:
  // each node completed its own copy.
  const double total_macs =
      options.cooperative
          ? static_cast<double>(options.shape.macs())
          : static_cast<double>(macs_node) * options.active_nodes;
  result.total_gflops = 2.0 * total_macs / (span_ps * 1e-12) / 1e9;
  return result;
}

SystemTiming SystemTimingModel::run_layers(
    const std::vector<sa::TileShape>& layers, TimingOptions options) const {
  if (layers.empty()) {
    throw std::invalid_argument("run_layers: empty layer list");
  }
  options.cooperative = true;
  double total_ps = 0.0;
  double total_flops = 0.0;
  SystemTiming last;
  for (const sa::TileShape& layer : layers) {
    options.shape = layer;
    last = run(options);
    total_ps += static_cast<double>(last.makespan_ps);
    total_flops += 2.0 * static_cast<double>(layer.macs());
  }
  SystemTiming result = last;
  result.makespan_ps = static_cast<sim::TimePs>(total_ps);
  result.total_gflops = total_flops / (total_ps * 1e-12) / 1e9;
  const sa::SaConfig sa = sa_config_for(options);
  const double peak_total = 2.0 * config_.mmae.frequency_hz * sa.rows *
                            sa.cols * effective_ways(options) *
                            options.active_nodes;
  result.mean_efficiency = result.total_gflops * 1e9 / peak_total;
  return result;
}

}  // namespace maco::core

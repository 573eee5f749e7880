#include "sampling/sampled_runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/detailed_runner.hpp"
#include "sampling/estimator.hpp"
#include "sampling/tile_space.hpp"

namespace maco::sampling {
namespace {

[[noreturn]] void unsupported(const std::string& what) {
  throw std::invalid_argument("fidelity=sampled " + what);
}

}  // namespace

core::SystemTiming run_sampled_layers(
    const core::SystemConfig& config,
    const std::vector<sa::TileShape>& layers,
    const core::TimingOptions& options) {
  const std::uint64_t tile = options.tile;
  if (tile == 0 || tile > core::kDetailedMaxDim) {
    unsupported("simulates one first-level tile per task, so tile must be "
                "in [1, " +
                std::to_string(core::kDetailedMaxDim) + "] (got " +
                std::to_string(tile) + "); shrink --set tile=...");
  }
  if (!(options.sample_frac > 0.0) || options.sample_frac > 1.0) {
    unsupported("wants sample_frac in (0, 1]");
  }

  const unsigned active_nodes = std::max(
      1u, std::min(options.active_nodes, config.node_count));

  const std::vector<Stratum> strata = enumerate_strata(layers, tile);

  EstimateRequest request;
  request.sample_frac = options.sample_frac;
  request.sample_seed = options.sample_seed;
  request.ci_target = options.ci_target;
  request.active_nodes = active_nodes;
  request.cooperative = options.cooperative;
  request.inner = options.inner;
  request.peak_macs_per_second = config.mmae_peak_macs(options.precision);

  // The measurement callback: sampled coordinates become tile tasks on
  // the detailed system — in-page operand offsets reproduce each tile's
  // position in the full matrices, `active_nodes` tiles run concurrently
  // per system instantiation (NoC/CCM/DRAM contention included), and one
  // warm-up issue per tile puts the measured task in the steady state an
  // interior tile of a long mapped run executes in.
  const MeasureFn measure = [&](const std::vector<TileRequest>& requests) {
    std::vector<core::DetailedTask> tiles;
    tiles.reserve(requests.size());
    for (const TileRequest& tile_request : requests) {
      const Stratum& stratum = strata[tile_request.stratum];
      const TileOffsets offsets =
          tile_page_offsets(stratum, tile_request.coord);
      tiles.push_back(core::DetailedTask{stratum.tile_shape, offsets.a,
                                         offsets.b, offsets.c});
    }
    const std::vector<mmae::TaskReport> reports =
        core::run_detailed_tiles(config, options, tiles, active_nodes,
                                 options.sample_workers);
    std::vector<TileSample> samples;
    samples.reserve(reports.size());
    for (const mmae::TaskReport& report : reports) {
      TileSample sample;
      sample.span_ps = static_cast<double>(report.end - report.start);
      sample.sa_busy_ps = static_cast<double>(report.sa_busy_ps);
      sample.translation_stall_ps =
          static_cast<double>(report.translation_stall_ps);
      sample.blocking_walks = static_cast<double>(report.blocking_walks);
      sample.matlb_hits = static_cast<double>(report.matlb_hits);
      samples.push_back(sample);
    }
    return samples;
  };

  return estimate_timing(strata, request, measure);
}

core::SystemTiming run_sampled_gemm(const core::SystemConfig& config,
                                    const core::TimingOptions& options) {
  return run_sampled_layers(config, {options.shape}, options);
}

}  // namespace maco::sampling

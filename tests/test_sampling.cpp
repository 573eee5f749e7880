// The sampled-fidelity estimation subsystem (src/sampling/): tile-space
// stratification, the seeded stratified sampler, the estimator's
// statistics (scaling, finite-population correction, adaptive refinement)
// and the end-to-end fidelity=sampled backend against exhaustive detailed
// runs and the analytic model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <tuple>

#include "core/detailed_runner.hpp"
#include "core/timing_model.hpp"
#include "exp/backend.hpp"
#include "sampling/estimator.hpp"
#include "sampling/sampled_runner.hpp"
#include "sampling/sampler.hpp"
#include "sampling/tile_space.hpp"

namespace maco::sampling {
namespace {

std::uint64_t total_count(const std::vector<Stratum>& strata) {
  std::uint64_t total = 0;
  for (const Stratum& s : strata) total += s.population();
  return total;
}

// ---- tile space ----

TEST(TileSpace, DivisibleGridIsOneInteriorStratum) {
  const auto strata = enumerate_strata({sa::TileShape{512, 512, 512}}, 256);
  ASSERT_EQ(strata.size(), 1u);
  EXPECT_EQ(strata[0].partial_mask, 0);
  EXPECT_EQ(strata[0].position_class(), "interior");
  EXPECT_EQ(strata[0].count, 8u);
  EXPECT_EQ(strata[0].tile_shape.m, 256u);
  EXPECT_EQ(strata[0].tile_shape.n, 256u);
  EXPECT_EQ(strata[0].tile_shape.k, 256u);
}

TEST(TileSpace, IrregularGridProducesAllEightPositionClasses) {
  // 576 = 2*256 + 64: a 3^3 grid whose last index along every dim is a
  // 64-wide remainder — interior, three edges, three ridges, one corner.
  const auto strata = enumerate_strata({sa::TileShape{576, 576, 576}}, 256);
  ASSERT_EQ(strata.size(), 8u);
  EXPECT_EQ(total_count(strata), 27u);
  std::uint64_t interior = 0, edge = 0, ridge = 0, corner = 0;
  for (const Stratum& s : strata) {
    if (s.position_class() == "interior") interior += s.count;
    if (s.position_class() == "edge") edge += s.count;
    if (s.position_class() == "ridge") ridge += s.count;
    if (s.position_class() == "corner") corner += s.count;
    // Every tile of a stratum shares one shape: partial dims are 64 wide.
    EXPECT_EQ(s.tile_shape.m, (s.partial_mask & kPartialM) ? 64u : 256u);
    EXPECT_EQ(s.tile_shape.n, (s.partial_mask & kPartialN) ? 64u : 256u);
    EXPECT_EQ(s.tile_shape.k, (s.partial_mask & kPartialK) ? 64u : 256u);
  }
  EXPECT_EQ(interior, 8u);
  EXPECT_EQ(edge, 12u);
  EXPECT_EQ(ridge, 6u);
  EXPECT_EQ(corner, 1u);
}

TEST(TileSpace, ExactDimsContributeNoPartialStrata) {
  // K divides evenly, M/N do not: no stratum may mark K partial.
  const auto strata =
      enumerate_strata({sa::TileShape{300, 300, 512}}, 256);
  ASSERT_EQ(strata.size(), 4u);
  for (const Stratum& s : strata) {
    EXPECT_EQ(s.partial_mask & kPartialK, 0);
  }
  EXPECT_EQ(total_count(strata), 2u * 2u * 2u);
}

TEST(TileSpace, CoordsCoverTheStratumAndPinPartialDims) {
  const auto strata = enumerate_strata({sa::TileShape{576, 576, 576}}, 256);
  for (const Stratum& s : strata) {
    std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> seen;
    for (std::uint64_t flat = 0; flat < s.count; ++flat) {
      const TileCoord coord = stratum_coord(s, flat);
      EXPECT_LT(coord.im, s.grid_m);
      EXPECT_LT(coord.in, s.grid_n);
      EXPECT_LT(coord.ik, s.grid_k);
      if (s.partial_mask & kPartialM) {
        EXPECT_EQ(coord.im, s.grid_m - 1);
      }
      if (s.partial_mask & kPartialN) {
        EXPECT_EQ(coord.in, s.grid_n - 1);
      }
      if (s.partial_mask & kPartialK) {
        EXPECT_EQ(coord.ik, s.grid_k - 1);
      }
      seen.insert({coord.im, coord.in, coord.ik});
    }
    EXPECT_EQ(seen.size(), s.count);  // distinct coordinates
    EXPECT_THROW(stratum_coord(s, s.count), std::out_of_range);
  }
}

TEST(TileSpace, IdenticalLayersCollapseWithMultiplicity) {
  const sa::TileShape big{512, 512, 512};
  const sa::TileShape small{256, 256, 256};
  const auto strata = enumerate_strata({big, small, big, big}, 256);
  ASSERT_EQ(strata.size(), 2u);
  EXPECT_EQ(strata[0].multiplicity, 3u);  // big appears three times
  EXPECT_EQ(strata[0].population(), 3u * 8u);
  EXPECT_EQ(strata[1].multiplicity, 1u);
  EXPECT_EQ(strata[1].population(), 1u);
}

TEST(TileSpace, PageOffsetsTrackTilePosition) {
  // Layer 512x512x520 (K irregular so A offsets vary): tile (im=1, ik=1)
  // starts A at element 1*256*520 + 1*256 => byte offset mod 4096.
  const auto strata = enumerate_strata({sa::TileShape{512, 512, 520}}, 256);
  const Stratum* interior = nullptr;
  for (const Stratum& s : strata) {
    if (s.partial_mask == 0) interior = &s;
  }
  ASSERT_NE(interior, nullptr);
  TileCoord coord;
  coord.im = 1;
  coord.in = 1;
  coord.ik = 1;
  const TileOffsets offsets = tile_page_offsets(*interior, coord);
  EXPECT_EQ(offsets.a, ((1ull * 256 * 520 + 256) * 8) % 4096);
  EXPECT_EQ(offsets.b, ((1ull * 256 * 512 + 256) * 8) % 4096);
  EXPECT_EQ(offsets.c, ((1ull * 256 * 512 + 256) * 8) % 4096);
  EXPECT_LT(offsets.a, 4096u);
}

TEST(TileSpace, CooperativeCountsPartitionEveryStratumExactly) {
  const auto strata = enumerate_strata({sa::TileShape{576, 576, 576}}, 128);
  for (const unsigned nodes : {1u, 2u, 4u, 6u, 16u}) {
    for (const Stratum& s : strata) {
      std::uint64_t assigned = 0;
      for (unsigned node = 0; node < nodes; ++node) {
        assigned += cooperative_node_count(s, nodes, node);
      }
      EXPECT_EQ(assigned, s.count)
          << "stratum mask " << int(s.partial_mask) << " over " << nodes
          << " nodes";
    }
  }
}

// ---- sampler ----

TEST(Sampler, AllocationFloorsCapsAndClamps) {
  EXPECT_EQ(allocate_samples(1000, 0.05, 2, 0), 50u);
  EXPECT_EQ(allocate_samples(10, 0.05, 2, 0), 2u);    // floor
  EXPECT_EQ(allocate_samples(1, 0.05, 2, 0), 1u);     // population clamp
  EXPECT_EQ(allocate_samples(1000000, 0.5, 2, 64), 64u);  // cap
  EXPECT_EQ(allocate_samples(8, 1.0, 2, 0), 8u);      // exhaustive
}

TEST(Sampler, SameSeedReproducesTheDraw) {
  const auto strata = enumerate_strata({sa::TileShape{4096, 4096, 4096}},
                                       256);
  ASSERT_EQ(strata.size(), 1u);
  StratumDraw a(strata[0], 42);
  StratumDraw b(strata[0], 42);
  const auto coords_a = a.extend(20);
  const auto coords_b = b.extend(20);
  ASSERT_EQ(coords_a.size(), 20u);
  ASSERT_EQ(coords_a.size(), coords_b.size());
  for (std::size_t i = 0; i < coords_a.size(); ++i) {
    EXPECT_EQ(coords_a[i].im, coords_b[i].im);
    EXPECT_EQ(coords_a[i].in, coords_b[i].in);
    EXPECT_EQ(coords_a[i].ik, coords_b[i].ik);
  }
  StratumDraw c(strata[0], 43);
  const auto coords_c = c.extend(20);
  bool any_differs = false;
  for (std::size_t i = 0; i < coords_c.size(); ++i) {
    any_differs = any_differs || coords_c[i].im != coords_a[i].im ||
                  coords_c[i].in != coords_a[i].in ||
                  coords_c[i].ik != coords_a[i].ik;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Sampler, ExtendDrawsDistinctTilesUntilExhaustion) {
  const auto strata = enumerate_strata({sa::TileShape{512, 512, 512}}, 128);
  ASSERT_EQ(strata.size(), 1u);
  ASSERT_EQ(strata[0].count, 64u);
  StratumDraw draw(strata[0], 7);
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> seen;
  const auto take = [&](std::uint64_t additional) {
    for (const TileCoord& coord : draw.extend(additional)) {
      EXPECT_TRUE(seen.insert({coord.im, coord.in, coord.ik}).second)
          << "duplicate draw";
    }
  };
  take(10);
  EXPECT_EQ(draw.drawn(), 10u);
  take(30);
  EXPECT_EQ(draw.drawn(), 40u);
  take(100);  // over-ask: exhausts the stratum exactly
  EXPECT_EQ(draw.drawn(), 64u);
  EXPECT_TRUE(draw.exhausted());
  EXPECT_TRUE(draw.extend(5).empty());
}

// ---- estimator (synthetic populations, no simulation) ----

// A deterministic synthetic population: the "span" of a tile is a function
// of its coordinates, so sampling means and variances are predictable and
// reproducible.
TileSample synthetic_sample(const TileCoord& coord, double base,
                            double wiggle) {
  TileSample sample;
  const double position =
      static_cast<double>((coord.im * 31 + coord.in * 17 + coord.ik * 7) %
                          10);
  sample.span_ps = base + wiggle * position;
  sample.sa_busy_ps = 0.8 * sample.span_ps;
  sample.translation_stall_ps = 0.05 * sample.span_ps;
  sample.blocking_walks = 1.0;
  sample.matlb_hits = 10.0;
  return sample;
}

MeasureFn synthetic_measure(double base, double wiggle,
                            std::uint64_t* calls = nullptr) {
  return [base, wiggle, calls](const std::vector<TileRequest>& requests) {
    std::vector<TileSample> samples;
    for (const TileRequest& request : requests) {
      if (calls != nullptr) ++*calls;
      samples.push_back(synthetic_sample(request.coord, base, wiggle));
    }
    return samples;
  };
}

TEST(Estimator, ExhaustiveSamplingReproducesTheExactTotal) {
  const auto strata = enumerate_strata({sa::TileShape{576, 576, 576}}, 256);
  EstimateRequest request;
  request.sample_frac = 1.0;
  request.peak_macs_per_second = 1e12;
  const core::SystemTiming timing =
      estimate_timing(strata, request, synthetic_measure(1e6, 1e4));
  // Every tile sampled: the estimate is the exact population sum and the
  // statistical SE vanishes (finite-population correction at n == N).
  double exact = 0.0;
  for (const Stratum& s : strata) {
    for (std::uint64_t flat = 0; flat < s.count; ++flat) {
      exact += synthetic_sample(stratum_coord(s, flat), 1e6, 1e4).span_ps;
    }
  }
  EXPECT_NEAR(static_cast<double>(timing.makespan_ps), exact, 1.0);
  EXPECT_EQ(timing.sampling.makespan_se_ps, 0.0);
  EXPECT_EQ(timing.sampling.sampled_tiles, 27u);
  EXPECT_EQ(timing.sampling.total_tiles, 27u);
  EXPECT_EQ(timing.sampling.strata, 8u);
  // The reported interval still carries the systematic model margin.
  EXPECT_NEAR(timing.sampling.makespan_ci95_ps, kModelMarginFrac * exact,
              1.0);
}

TEST(Estimator, SameSeedIsBitIdenticalDifferentSeedResamples) {
  const auto strata =
      enumerate_strata({sa::TileShape{4096, 4096, 4096}}, 256);
  EstimateRequest request;
  request.sample_frac = 0.01;
  request.sample_seed = 5;
  request.peak_macs_per_second = 1e12;
  const auto measure = synthetic_measure(1e6, 5e4);
  const core::SystemTiming a = estimate_timing(strata, request, measure);
  const core::SystemTiming b = estimate_timing(strata, request, measure);
  EXPECT_EQ(a.makespan_ps, b.makespan_ps);
  EXPECT_EQ(a.sampling.makespan_se_ps, b.sampling.makespan_se_ps);
  request.sample_seed = 6;
  const core::SystemTiming c = estimate_timing(strata, request, measure);
  EXPECT_NE(a.makespan_ps, c.makespan_ps);  // different tiles drawn
  // Both estimates of the same population agree within their intervals.
  EXPECT_NEAR(static_cast<double>(a.makespan_ps),
              static_cast<double>(c.makespan_ps),
              a.sampling.makespan_ci95_ps + c.sampling.makespan_ci95_ps);
}

TEST(Estimator, AdaptiveModeStopsAtTheCiTarget) {
  const auto strata =
      enumerate_strata({sa::TileShape{8192, 8192, 8192}}, 256);
  ASSERT_EQ(strata.size(), 1u);  // 32^3 = 32768 interior tiles

  // Without a target: the initial allocation is all that runs.
  EstimateRequest request;
  request.sample_frac = 0.001;  // ~33 tiles
  request.peak_macs_per_second = 1e12;
  std::uint64_t baseline_calls = 0;
  const core::SystemTiming coarse = estimate_timing(
      strata, request,
      synthetic_measure(1e6, 3e5, &baseline_calls));
  ASSERT_GT(coarse.sampling.makespan_se_ps, 0.0);

  // With a target tighter than the coarse run achieved: adaptive rounds
  // must add samples until the relative statistical CI reaches it.
  const double coarse_rel = 1.96 * coarse.sampling.makespan_se_ps /
                            static_cast<double>(coarse.makespan_ps);
  request.ci_target = coarse_rel / 2.0;
  std::uint64_t adaptive_calls = 0;
  const core::SystemTiming refined = estimate_timing(
      strata, request,
      synthetic_measure(1e6, 3e5, &adaptive_calls));
  EXPECT_GT(adaptive_calls, baseline_calls);
  EXPECT_GT(refined.sampling.sampled_tiles,
            coarse.sampling.sampled_tiles);
  const double refined_rel = 1.96 * refined.sampling.makespan_se_ps /
                             static_cast<double>(refined.makespan_ps);
  EXPECT_LE(refined_rel, request.ci_target);
}

TEST(Estimator, CooperativeMakespanIsTheCriticalNode) {
  // A 1x5x1 tile grid over 2 nodes (choose_grid(2) = 1x2, so the split
  // runs along N): node 0 owns 2 C-tile columns, node 1 owns 3 — the
  // makespan is node 1's span, not the mean.
  const auto strata =
      enumerate_strata({sa::TileShape{256, 1280, 256}}, 256);
  ASSERT_EQ(strata.size(), 1u);
  ASSERT_EQ(strata[0].count, 5u);
  EstimateRequest request;
  request.sample_frac = 1.0;
  request.cooperative = true;
  request.active_nodes = 2;
  request.peak_macs_per_second = 1e12;
  const core::SystemTiming timing = estimate_timing(
      strata, request, synthetic_measure(1e6, 0.0));
  ASSERT_EQ(timing.nodes.size(), 2u);
  const double spans[2] = {static_cast<double>(timing.nodes[0].span_ps),
                           static_cast<double>(timing.nodes[1].span_ps)};
  EXPECT_NEAR(spans[0] + spans[1], 5e6, 1.0);
  EXPECT_NEAR(static_cast<double>(timing.makespan_ps),
              std::max(spans[0], spans[1]), 1.0);
  EXPECT_NEAR(std::max(spans[0], spans[1]), 3e6, 1.0);
  // Exact MAC bookkeeping: the two nodes cover the workload once.
  const sa::TileShape workload{256, 1280, 256};
  EXPECT_EQ(timing.nodes[0].macs + timing.nodes[1].macs, workload.macs());
}

TEST(Estimator, RejectsBadRequests) {
  const auto strata = enumerate_strata({sa::TileShape{512, 512, 512}}, 256);
  const auto measure = synthetic_measure(1e6, 0.0);
  EstimateRequest request;
  request.sample_frac = 0.0;
  EXPECT_THROW(estimate_timing(strata, request, measure),
               std::invalid_argument);
  request.sample_frac = 1.5;
  EXPECT_THROW(estimate_timing(strata, request, measure),
               std::invalid_argument);
  request.sample_frac = 0.5;
  request.active_nodes = 0;
  EXPECT_THROW(estimate_timing(strata, request, measure),
               std::invalid_argument);
  EXPECT_THROW(estimate_timing({}, EstimateRequest{}, measure),
               std::invalid_argument);
}

// ---- end to end on the detailed machine ----

core::TimingOptions sampled_options(std::uint64_t size, std::uint64_t tile) {
  core::TimingOptions options;
  options.shape = sa::TileShape{size, size, size};
  options.active_nodes = 1;
  options.tile = tile;
  options.sample_frac = 1.0;
  return options;
}

TEST(SampledRunner, MatchesExhaustiveDetailedWithinTheReportedCi) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const core::TimingOptions options = sampled_options(384, 128);
  const core::SystemTiming sampled = run_sampled_gemm(config, options);
  core::TimingOptions exhaustive = options;
  exhaustive.tile = 1024;
  const core::SystemTiming detailed =
      core::run_detailed_gemm(config, {exhaustive.shape}, exhaustive);
  ASSERT_GT(sampled.makespan_ps, 0u);
  ASSERT_TRUE(sampled.sampling.present());
  EXPECT_EQ(sampled.sampling.sampled_tiles, 27u);
  EXPECT_NEAR(static_cast<double>(sampled.makespan_ps),
              static_cast<double>(detailed.makespan_ps),
              sampled.sampling.makespan_ci95_ps)
      << "sampled " << sampled.makespan_ps << " vs detailed "
      << detailed.makespan_ps;
  EXPECT_NEAR(sampled.mean_efficiency, detailed.mean_efficiency, 0.12);
}

TEST(SampledRunner, CiCoversTheAnalyticModelAtCrossValidationSize) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const core::TimingOptions options = sampled_options(512, 256);
  const core::SystemTiming sampled = run_sampled_gemm(config, options);
  const core::SystemTiming analytic =
      core::SystemTimingModel(config).run(options);
  EXPECT_NEAR(static_cast<double>(sampled.makespan_ps),
              static_cast<double>(analytic.makespan_ps),
              sampled.sampling.makespan_ci95_ps)
      << "sampled " << sampled.makespan_ps << " vs analytic "
      << analytic.makespan_ps;
}

TEST(SampledRunner, DeterministicSeedingReproducesIdenticalEstimates) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  core::TimingOptions options = sampled_options(640, 128);
  options.sample_frac = 0.05;  // a strict subset of the 125-tile grid
  const core::SystemTiming once = run_sampled_gemm(config, options);
  const core::SystemTiming twice = run_sampled_gemm(config, options);
  EXPECT_EQ(once.makespan_ps, twice.makespan_ps);
  EXPECT_EQ(once.sampling.sampled_tiles, twice.sampling.sampled_tiles);
  EXPECT_EQ(once.sampling.makespan_se_ps, twice.sampling.makespan_se_ps);
  EXPECT_EQ(once.total_gflops, twice.total_gflops);
  EXPECT_LT(once.sampling.sampled_tiles, once.sampling.total_tiles);
}

TEST(SampledRunner, ParallelWorkersProduceTheSequentialResult) {
  // Batches are independent MacoSystems writing disjoint measurement
  // slots, so worker parallelism must not change a single bit of the
  // estimate — neither at 3 workers nor at the default (0: one per
  // hardware thread).
  const core::SystemConfig config = core::SystemConfig::maco_default();
  core::TimingOptions options = sampled_options(640, 128);
  options.sample_frac = 0.05;
  options.sample_workers = 1;
  const core::SystemTiming sequential = run_sampled_gemm(config, options);
  for (const unsigned workers : {3u, core::TimingOptions{}.sample_workers}) {
    options.sample_workers = workers;
    const core::SystemTiming parallel = run_sampled_gemm(config, options);
    EXPECT_EQ(sequential.makespan_ps, parallel.makespan_ps) << workers;
    EXPECT_EQ(sequential.sampling.makespan_se_ps,
              parallel.sampling.makespan_se_ps)
        << workers;
    EXPECT_EQ(sequential.total_gflops, parallel.total_gflops) << workers;
  }
}

TEST(SampledRunner, LiftsTheDetailedSizeCap) {
  // Every dimension beyond kDetailedMaxDim: the detailed backend rejects
  // the shape, the sampled backend estimates it from a handful of tiles.
  const core::SystemConfig config = core::SystemConfig::maco_default();
  core::TimingOptions options = sampled_options(2176, 128);  // 17^3 tiles
  options.sample_frac = 1e-6;  // floor: 2 sampled tiles
  ASSERT_GT(options.shape.m, core::kDetailedMaxDim);
  EXPECT_THROW(core::run_detailed_gemm(config, {options.shape}, options),
               std::invalid_argument);
  const core::SystemTiming sampled = run_sampled_gemm(config, options);
  EXPECT_GT(sampled.makespan_ps, 0u);
  EXPECT_GT(sampled.total_gflops, 0.0);
  EXPECT_EQ(sampled.sampling.total_tiles, 17u * 17u * 17u);
  EXPECT_EQ(sampled.sampling.sampled_tiles, 2u);
  // And the estimate lands in the physically-plausible band.
  EXPECT_GT(sampled.mean_efficiency, 0.5);
  EXPECT_LE(sampled.mean_efficiency, 1.0);
}

TEST(SampledRunner, CooperativeModeSplitsTheWorkAcrossNodes) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  core::TimingOptions options = sampled_options(512, 256);
  // Both estimates share the sampled per-tile means, so the split shows
  // up as pure scaling: 2x2x2 tile grid, 4 nodes => 2 tiles per node
  // cooperatively vs all 8 independently.
  options.sample_frac = 0.3;  // floor of 2 sampled tiles
  const core::SystemTiming independent = run_sampled_gemm(config, options);
  options.cooperative = true;
  options.active_nodes = 4;
  const core::SystemTiming cooperative = run_sampled_gemm(config, options);
  ASSERT_EQ(cooperative.nodes.size(), 4u);
  EXPECT_LT(static_cast<double>(cooperative.makespan_ps),
            0.5 * static_cast<double>(independent.makespan_ps));
  std::uint64_t macs = 0;
  for (const core::NodeTiming& node : cooperative.nodes) macs += node.macs;
  EXPECT_EQ(macs, options.shape.macs());
}

TEST(SampledRunner, LayerSequencesAccumulateAndCollapseDuplicates) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const core::TimingOptions options = sampled_options(256, 128);
  const sa::TileShape layer{256, 256, 256};
  const core::SystemTiming once = run_sampled_layers(config, {layer},
                                                     options);
  const core::SystemTiming thrice =
      run_sampled_layers(config, {layer, layer, layer}, options);
  // Identical layers collapse into multiplicity: same sampled tiles, three
  // times the estimated work and time.
  EXPECT_EQ(thrice.sampling.sampled_tiles, once.sampling.sampled_tiles);
  EXPECT_EQ(thrice.sampling.total_tiles, 3 * once.sampling.total_tiles);
  EXPECT_NEAR(static_cast<double>(thrice.makespan_ps),
              3.0 * static_cast<double>(once.makespan_ps),
              1e-6 * static_cast<double>(once.makespan_ps) + 1.0);
  EXPECT_EQ(thrice.nodes[0].macs, 3 * once.nodes[0].macs);
}

TEST(SampledRunner, RejectsUnusableConfigurations) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  core::TimingOptions options = sampled_options(512, 256);
  options.tile = core::kDetailedMaxDim + 1;
  EXPECT_THROW(run_sampled_gemm(config, options), std::invalid_argument);
  options = sampled_options(512, 256);
  options.sample_frac = 0.0;
  EXPECT_THROW(run_sampled_gemm(config, options), std::invalid_argument);
  options = sampled_options(512, 256);
  options.use_stash_lock = false;  // analytic-only knob
  EXPECT_THROW(run_sampled_gemm(config, options), std::invalid_argument);
}

TEST(Backend, SampledIsAFirstClassFidelity) {
  EXPECT_EQ(exp::fidelity_name(exp::Fidelity::kSampled), "sampled");
  EXPECT_EQ(exp::parse_fidelity("sampled"), exp::Fidelity::kSampled);
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const auto backend = exp::make_backend(exp::Fidelity::kSampled, config);
  EXPECT_EQ(backend->fidelity(), exp::Fidelity::kSampled);
  const core::SystemTiming timing = backend->run(sampled_options(384, 128));
  EXPECT_TRUE(timing.sampling.present());
  EXPECT_GT(timing.total_gflops, 0.0);
}

}  // namespace
}  // namespace maco::sampling

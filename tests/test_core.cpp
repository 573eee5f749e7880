// System-level pieces: config, mapper, GEMM+ scheduler and the timing model
// (the Fig. 6/7 mechanisms).
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/gemm_mapper.hpp"
#include "core/gemm_plus.hpp"
#include "core/timing_model.hpp"
#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"

namespace maco::core {
namespace {

TEST(Config, DerivedQuantities) {
  const SystemConfig config = SystemConfig::maco_default();
  EXPECT_EQ(config.node_count, 16u);
  EXPECT_NEAR(config.mmae_peak_flops(sa::Precision::kFp64), 80e9, 1e6);
  EXPECT_NEAR(config.mmae_peak_flops(sa::Precision::kFp32), 160e9, 1e6);
  EXPECT_NEAR(config.cpu_peak_flops(sa::Precision::kFp64), 35.2e9, 1e6);
  EXPECT_EQ(config.l3_total_bytes(), 32ull * 1024 * 1024);
  EXPECT_NEAR(config.dram_total_bandwidth(), 204.8e9, 1e6);
  EXPECT_EQ(config.node_link_bandwidth(), 64e9);
}

TEST(Mapper, GridChoicesAreSquareish) {
  EXPECT_EQ(choose_grid(1), (std::pair<unsigned, unsigned>{1, 1}));
  EXPECT_EQ(choose_grid(2), (std::pair<unsigned, unsigned>{1, 2}));
  EXPECT_EQ(choose_grid(4), (std::pair<unsigned, unsigned>{2, 2}));
  EXPECT_EQ(choose_grid(8), (std::pair<unsigned, unsigned>{2, 4}));
  EXPECT_EQ(choose_grid(16), (std::pair<unsigned, unsigned>{4, 4}));
}

TEST(Mapper, FullCoverageNoOverlap) {
  const auto plan = partition_gemm(4096, 4096, 1024, 16);
  ASSERT_EQ(plan.size(), 16u);
  // Every C element covered exactly once.
  std::uint64_t covered = 0;
  for (const auto& node : plan) {
    for (const auto& tile : node.c_tiles) {
      covered += tile.rows * tile.cols;
    }
  }
  EXPECT_EQ(covered, 4096ull * 4096);
  // Fig. 5: node 0 owns the top-left block.
  EXPECT_EQ(plan[0].row_begin, 0u);
  EXPECT_EQ(plan[0].col_begin, 0u);
}

TEST(Mapper, BalancedWork) {
  const auto plan = partition_gemm(4096, 4096, 2048, 16);
  const std::uint64_t peak = critical_path_macs(plan);
  std::uint64_t total = 0;
  for (const auto& node : plan) total += node.macs;
  EXPECT_NEAR(static_cast<double>(peak) * 16 / static_cast<double>(total),
              1.0, 0.05);
}

TEST(Mapper, UnevenDimensionsStillCover) {
  const auto plan = partition_gemm(1000, 3000, 500, 8);
  std::uint64_t covered = 0;
  for (const auto& node : plan) {
    for (const auto& tile : node.c_tiles) covered += tile.rows * tile.cols;
  }
  EXPECT_EQ(covered, 1000ull * 3000);
}

TEST(GemmPlus, SerialSumsStages) {
  std::vector<GemmPlusStage> stages(3, GemmPlusStage{1000, 400, 100});
  const auto serial = schedule_gemm_plus(stages, /*overlap=*/false);
  EXPECT_EQ(serial.total_ps, 3u * 1500);
  EXPECT_EQ(serial.overlap_fraction, 0.0);
}

TEST(GemmPlus, PipelineHidesCpuWork) {
  std::vector<GemmPlusStage> stages(8, GemmPlusStage{1000, 400, 100});
  const auto piped = schedule_gemm_plus(stages, /*overlap=*/true);
  const auto serial = schedule_gemm_plus(stages, /*overlap=*/false);
  EXPECT_LT(piped.total_ps, serial.total_ps);
  EXPECT_GT(piped.overlap_fraction, 0.8);
  // Lower bound: the MMAE busy time plus first stash.
  EXPECT_GE(piped.total_ps, 8u * 1000 + 100);
}

TEST(GemmPlus, CpuBoundStagesExposeCpuTime) {
  std::vector<GemmPlusStage> stages(4, GemmPlusStage{100, 1000, 0});
  const auto piped = schedule_gemm_plus(stages, true);
  // CPU work dominates: the schedule cannot beat the CPU serial chain.
  EXPECT_GE(piped.total_ps, 4u * 100);
  EXPECT_GE(piped.cpu_busy_ps, 4u * 1000);
}

// ---------------- timing model ----------------

class TimingModelTest : public ::testing::Test {
 protected:
  TimingModelTest() : model_(SystemConfig::maco_default()) {}
  SystemTimingModel model_;
};

TEST_F(TimingModelTest, SingleNodeHighEfficiencyWithPrediction) {
  TimingOptions options;
  options.shape = sa::TileShape{1024, 1024, 1024};
  const SystemTiming timing = model_.run(options);
  EXPECT_GT(timing.mean_efficiency, 0.90);
  EXPECT_LE(timing.mean_efficiency, 1.0);
}

TEST_F(TimingModelTest, PredictionGapMatchesFig6Shape) {
  TimingOptions with;
  with.shape = sa::TileShape{1024, 1024, 1024};
  TimingOptions without = with;
  without.use_matlb = false;

  const double eff_with = model_.run(with).mean_efficiency;
  const double eff_without = model_.run(without).mean_efficiency;
  const double gap = eff_with - eff_without;
  // Paper Fig. 6: maximum gap 6.5% at 1024.
  EXPECT_GT(gap, 0.03);
  EXPECT_LT(gap, 0.12);

  // Below TLB reach the gap collapses (<2% at 256).
  TimingOptions small_with = with;
  small_with.shape = sa::TileShape{256, 256, 256};
  TimingOptions small_without = small_with;
  small_without.use_matlb = false;
  const double small_gap = model_.run(small_with).mean_efficiency -
                           model_.run(small_without).mean_efficiency;
  EXPECT_LT(small_gap, 0.02);
}

TEST_F(TimingModelTest, TranslationEstimateTlbReachKnee) {
  TimingOptions options;
  options.shape = sa::TileShape{256, 256, 256};
  const auto resident =
      model_.estimate_translation(options, options.shape);
  options.shape = sa::TileShape{2048, 2048, 2048};
  const auto thrash = model_.estimate_translation(options, options.shape);
  EXPECT_LT(resident.walks_per_tile, 2.0);   // fits sTLB reach
  EXPECT_GT(thrash.walks_per_tile, 16.0);    // recurring misses
}

TEST_F(TimingModelTest, ScalabilityLossAtSixteenNodes) {
  TimingOptions one;
  one.shape = sa::TileShape{4096, 4096, 4096};
  one.active_nodes = 1;
  TimingOptions sixteen = one;
  sixteen.active_nodes = 16;

  const double eff1 = model_.run(one).mean_efficiency;
  const double eff16 = model_.run(sixteen).mean_efficiency;
  EXPECT_GT(eff1, eff16);           // contention costs something
  EXPECT_GT(eff16, 0.80);           // but the paper reports ~90% average
  EXPECT_LT(eff1 - eff16, 0.15);    // ~10% loss, not a collapse
}

TEST_F(TimingModelTest, CooperativeSplitsWork) {
  TimingOptions coop;
  coop.shape = sa::TileShape{4096, 4096, 4096};
  coop.active_nodes = 16;
  coop.cooperative = true;
  const SystemTiming timing = model_.run(coop);
  // 16 nodes cooperating finish ~16x faster than one node.
  TimingOptions solo = coop;
  solo.active_nodes = 1;
  solo.cooperative = false;
  const SystemTiming single = model_.run(solo);
  const double speedup = static_cast<double>(single.makespan_ps) /
                         static_cast<double>(timing.makespan_ps);
  EXPECT_GT(speedup, 12.0);
  EXPECT_LE(speedup, 16.5);
}

TEST_F(TimingModelTest, AggregateCyclesMatchValidatedModel) {
  // aggregate_sa_cycles sums sa::compute_sa_timing over the inner-tile
  // blocks: 192x128x64 at inner 64 is 3x2x1 full blocks.
  TimingOptions options;
  options.shape = sa::TileShape{192, 128, 64};
  options.inner = 64;
  const std::uint64_t cycles =
      model_.aggregate_sa_cycles(options.shape, options);
  const sa::SaTiming tile =
      sa::compute_sa_timing(sa::TileShape{64, 64, 64},
                            SystemConfig::maco_default().mmae.sa);
  EXPECT_EQ(cycles, tile.total_cycles * (3 * 2 * 1));
}

TEST_F(TimingModelTest, StashOffCostsThroughput) {
  // A single node at FP64 is compute-bound regardless of stash (its ~10 GB/s
  // demand never stresses the memory system); the benefit shows when all 16
  // nodes share the DDR supply and locking trims the re-stream traffic.
  TimingOptions with;
  with.shape = sa::TileShape{4096, 4096, 4096};
  with.active_nodes = 16;
  TimingOptions without = with;
  without.use_stash_lock = false;
  EXPECT_GT(model_.run(with).total_gflops,
            model_.run(without).total_gflops);
}

TEST_F(TimingModelTest, LayersAggregateThroughput) {
  TimingOptions options;
  options.active_nodes = 16;
  options.cooperative = true;
  std::vector<sa::TileShape> layers = {
      sa::TileShape{1024, 1024, 1024}, sa::TileShape{2048, 2048, 2048}};
  const SystemTiming timing = model_.run_layers(layers, options);
  EXPECT_GT(timing.total_gflops, 0.0);
  EXPECT_GT(timing.makespan_ps, 0u);
}

TEST_F(TimingModelTest, LayerTranslationsWeighEachLayerByItsInnerTiles) {
  // A run's walks and pages per tile are every layer's translations over
  // every layer's inner tiles, as the sampled estimator counts them, not
  // the last layer's. The last layer here is small and translates
  // differently from the others.
  const std::vector<sa::TileShape> layers = {
      sa::TileShape{2048, 4096, 4096}, sa::TileShape{512, 512, 512},
      sa::TileShape{64, 1000, 2048}};
  for (const bool cooperative : {false, true}) {
    TimingOptions options;
    options.active_nodes = cooperative ? 16 : 1;
    options.cooperative = cooperative;
    double tiles = 0.0;
    double walks = 0.0;
    double pages = 0.0;
    const auto along = [&](std::uint64_t extent) {
      return (extent + options.inner - 1) / options.inner;
    };
    for (const sa::TileShape& layer : layers) {
      sa::TileShape node = layer;  // the GEMM each node runs
      if (cooperative) {
        const auto [rows, cols] = choose_grid(options.active_nodes);
        node.m = (layer.m + rows - 1) / rows;
        node.n = (layer.n + cols - 1) / cols;
      }
      const double layer_tiles =
          static_cast<double>(along(node.m) * along(node.n) * along(node.k));
      options.shape = layer;
      const TranslationEstimate alone = model_.run(options).translation;
      tiles += layer_tiles;
      walks += alone.walks_per_tile * layer_tiles;
      pages += alone.pages_per_tile * layer_tiles;
    }
    ASSERT_GT(walks, 0.0) << cooperative;
    const TranslationEstimate rolled =
        model_.run_layers(layers, options).translation;
    EXPECT_DOUBLE_EQ(rolled.walks_per_tile, walks / tiles) << cooperative;
    EXPECT_DOUBLE_EQ(rolled.pages_per_tile, pages / tiles) << cooperative;
    const double last = model_.run(options).translation.pages_per_tile;
    EXPECT_NE(rolled.pages_per_tile, last) << cooperative;
  }
}

}  // namespace
}  // namespace maco::core

namespace maco::core {
namespace {

// ---------------- translation memo ----------------

// A memo hit must return exactly what a fresh model computes.
void expect_identical(const SystemTiming& got, const SystemTiming& want,
                      const std::string& what) {
  EXPECT_EQ(got.makespan_ps, want.makespan_ps) << what;
  EXPECT_EQ(got.total_gflops, want.total_gflops) << what;
  EXPECT_EQ(got.mean_efficiency, want.mean_efficiency) << what;
  EXPECT_EQ(got.translation.pages_per_tile, want.translation.pages_per_tile)
      << what;
  EXPECT_EQ(got.translation.walks_per_tile, want.translation.walks_per_tile)
      << what;
  EXPECT_EQ(got.translation.stall_per_tile_ps,
            want.translation.stall_per_tile_ps)
      << what;
}

std::string shape_name(const sa::TileShape& shape) {
  return std::to_string(shape.m) + "x" + std::to_string(shape.n) + "x" +
         std::to_string(shape.k);
}

TEST(TimingModelMemo, LongLivedModelMatchesFreshModels) {
  // One model serves every builtin manifest, both phases, and the gemm
  // grid, so its memo holds every earlier workload's shapes when the next
  // one runs. Each distinct shape is checked once against a model that has
  // seen nothing else; one layer list shares shapes that differ only in k,
  // so the reference for a shape must not have seen its siblings.
  const SystemConfig config = SystemConfig::maco_default();
  const SystemTimingModel shared(config);
  for (const graph::BuiltinManifest& manifest : graph::builtin_manifests()) {
    for (const graph::Phase phase :
         {graph::Phase::kPrefill, graph::Phase::kDecode}) {
      graph::LoweringOptions lowering;
      lowering.phase = phase;
      const graph::LoweredModel lowered =
          graph::lower(graph::builtin_graph(manifest.name), lowering);
      const std::vector<sa::TileShape> layers =
          lowered.workload.expanded_shapes();
      TimingOptions options;
      options.precision = lowered.workload.precision;
      options.active_nodes = config.node_count;
      options.cooperative = true;
      const std::string what =
          std::string(manifest.name) + " " + graph::phase_name(phase);
      std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> seen;
      for (const sa::TileShape& layer : layers) {
        if (!seen.emplace(layer.m, layer.n, layer.k).second) continue;
        options.shape = layer;
        expect_identical(shared.run(options),
                         SystemTimingModel(config).run(options),
                         what + " " + shape_name(layer));
      }
      expect_identical(shared.run_layers(layers, options),
                       SystemTimingModel(config).run_layers(layers, options),
                       what);
    }
  }
  for (const std::uint64_t size : {256, 1024, 4096, 9216}) {
    for (const unsigned nodes : {1u, 16u}) {
      TimingOptions options;
      options.shape = sa::TileShape{size, size, size};
      options.active_nodes = nodes;
      const std::string what =
          "gemm " + std::to_string(size) + " x" + std::to_string(nodes);
      const SystemTiming first = shared.run(options);
      expect_identical(first, SystemTimingModel(config).run(options), what);
      expect_identical(shared.run(options), first, what + " (repeat)");
    }
  }
}

TEST(TimingModelMemo, EveryTranslationInputIsPartOfTheKey) {
  // Each variant differs from its base in one input the sTLB simulation
  // reads, and the base runs on the same instance just before it, so a key
  // missing that input would serve the base's estimate to the variant.
  const SystemConfig config = SystemConfig::maco_default();
  const SystemTimingModel model(config);
  using Tweak = void (*)(TimingOptions&);
  const std::pair<const char*, Tweak> variants[] = {
      // Doubling m repeats the per-tile-row page pattern; one tile row
      // (m = 64) changes it.
      {"shape.m", [](TimingOptions& o) { o.shape.m = 64; }},
      {"shape.n", [](TimingOptions& o) { o.shape.n *= 2; }},
      {"shape.k", [](TimingOptions& o) { o.shape.k *= 2; }},
      {"page_bytes", [](TimingOptions& o) { o.page_bytes = 65536; }},
      {"tlb_entries_override",
       [](TimingOptions& o) { o.tlb_entries_override = 4096; }},
      {"inner", [](TimingOptions& o) { o.inner = 128; }},
      {"precision",
       [](TimingOptions& o) { o.precision = sa::Precision::kFp32; }},
      {"pte_walks_warm", [](TimingOptions& o) { o.pte_walks_warm = true; }},
  };
  // 512³ defaults to warm leaf PTEs (2 walks per tile), 640³ to cold (4.16),
  // so the PTE policy flag changes the stall on the 640³ base.
  constexpr std::size_t kVariants = std::size(variants);
  bool changed[kVariants] = {};
  for (const std::uint64_t size : {512, 640}) {
    TimingOptions base;
    base.shape = sa::TileShape{size, size, size};
    const SystemTiming want_base = SystemTimingModel(config).run(base);
    for (std::size_t v = 0; v < kVariants; ++v) {
      const auto& [name, tweak] = variants[v];
      const std::string what =
          std::string(name) + " at " + std::to_string(size);
      expect_identical(model.run(base), want_base, what + " (base)");
      TimingOptions variant = base;
      tweak(variant);
      const SystemTiming got = model.run(variant);
      expect_identical(got, SystemTimingModel(config).run(variant), what);
      const TranslationEstimate& a = got.translation;
      const TranslationEstimate& b = want_base.translation;
      changed[v] |= a.stall_per_tile_ps != b.stall_per_tile_ps ||
                    a.walks_per_tile != b.walks_per_tile ||
                    a.pages_per_tile != b.pages_per_tile;
    }
  }
  for (std::size_t v = 0; v < kVariants; ++v) {
    EXPECT_TRUE(changed[v]) << variants[v].first
                            << " never changes the estimate";
  }
}

TEST(TimingModelMemo, SharedModelGivesEveryThreadTheSameResults) {
  const SystemConfig config = SystemConfig::maco_default();
  std::vector<TimingOptions> points;
  for (const std::uint64_t size : {256, 512, 640, 1024}) {
    for (const unsigned nodes : {1u, 16u}) {
      TimingOptions options;
      options.shape = sa::TileShape{size, size, size};
      options.active_nodes = nodes;
      options.cooperative = nodes > 1;
      points.push_back(options);
    }
  }
  std::vector<SystemTiming> want;
  for (const TimingOptions& options : points) {
    want.push_back(SystemTimingModel(config).run(options));
  }

  const SystemTimingModel shared(config);
  constexpr unsigned kThreads = 4;
  std::vector<std::vector<SystemTiming>> got(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Threads 0 and 1 walk the points in one order and race on the same
      // key; threads 2 and 3 start halfway, inserting other keys meanwhile.
      const std::size_t start = t / 2 * points.size() / 2;
      got[t].resize(points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t p = (start + i) % points.size();
        got[t][p] = shared.run(points[p]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    for (std::size_t p = 0; p < points.size(); ++p) {
      expect_identical(got[t][p], want[p],
                       "thread " + std::to_string(t) + " point " +
                           std::to_string(p));
    }
  }
}

TEST(TimingModelErrors, UserInputValuesThrowTypedErrors) {
  const SystemTimingModel model(SystemConfig::maco_default());
  const auto message = [&](const TimingOptions& options) -> std::string {
    try {
      (void)model.run(options);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "no error";
  };
  TimingOptions options;
  options.shape = sa::TileShape{64, 64, 64};

  TimingOptions bad = options;
  bad.shape.m = 0;
  EXPECT_NE(message(bad).find("shape.m = 0"), std::string::npos);
  bad = options;
  bad.shape.k = 0;
  EXPECT_NE(message(bad).find("shape.k = 0"), std::string::npos);
  bad = options;
  bad.active_nodes = 0;
  EXPECT_NE(message(bad).find("active_nodes = 0"), std::string::npos);
  bad.active_nodes = 17;
  EXPECT_NE(message(bad).find("active_nodes = 17"), std::string::npos);
  bad = options;
  bad.inner = 0;
  EXPECT_NE(message(bad).find("inner = 0"), std::string::npos);
  bad = options;
  bad.page_bytes = 0;
  EXPECT_NE(message(bad).find("page_bytes = 0"), std::string::npos);

  EXPECT_THROW((void)model.run_layers({}, options), std::invalid_argument);
  EXPECT_THROW((void)model.run_layers({sa::TileShape{64, 0, 64}}, options),
               std::invalid_argument);
}

TEST(PageSizeAblation, HugePagesEraseThePredictionGap) {
  const SystemTimingModel model(SystemConfig::maco_default());
  TimingOptions with;
  with.shape = sa::TileShape{2048, 2048, 2048};
  with.page_bytes = 2 * 1024 * 1024;
  TimingOptions without = with;
  without.use_matlb = false;
  const double gap = model.run(with).mean_efficiency -
                     model.run(without).mean_efficiency;
  EXPECT_LT(gap, 0.01);  // nothing left to predict away
  EXPECT_LT(model.run(without).translation.walks_per_tile, 1.0);
}

}  // namespace
}  // namespace maco::core

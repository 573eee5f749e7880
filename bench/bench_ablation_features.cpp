// Ablation: decomposes MACO's gains into its two mapping/translation
// features — predictive address translation (mATLB, Section IV.A) and data
// stash+lock (Section IV.B) — on a 2x2 on/off grid, for a paper-scale
// square GEMM and for BERT, plus sensitivity sweeps over the design
// constants DESIGN.md calls out (inner tile size, DDR efficiency).
#include <iostream>

#include "baselines/comparison.hpp"
#include "core/timing_model.hpp"
#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"
#include "util/table.hpp"

namespace {

using namespace maco;

void feature_grid() {
  const core::SystemTimingModel model(core::SystemConfig::maco_default());

  util::Table t({"mATLB", "stash+lock", "4096^3 FP64 x16 (GFLOPS)",
                 "efficiency", "translation walks/tile"});
  for (const bool matlb : {true, false}) {
    for (const bool stash : {true, false}) {
      core::TimingOptions options;
      options.shape = sa::TileShape{4096, 4096, 4096};
      options.active_nodes = 16;
      options.cooperative = false;  // independent per node, as in Fig. 7
      options.use_matlb = matlb;
      options.use_stash_lock = stash;
      const core::SystemTiming timing = model.run(options);
      t.row()
          .cell(matlb ? "on" : "off")
          .cell(stash ? "on" : "off")
          .cell(timing.total_gflops, 1)
          .percent(timing.mean_efficiency)
          .cell(timing.translation.walks_per_tile, 1);
    }
  }
  t.print(std::cout,
          "Feature ablation: predictive translation x stash+lock "
          "(16 nodes, independent 4096^3 FP64 GEMMs)");
  std::cout << "\n";
}

void bert_grid() {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const baseline::Comparator comparator(config, 16);
  const wl::Workload bert =
      graph::lower(graph::builtin_graph("bert-block")).workload;

  util::Table t({"mATLB", "stash+lock", "CPU/MMAE overlap",
                 "BERT (GFLOPS)"});
  for (const bool matlb : {true, false}) {
    for (const bool stash : {true, false}) {
      for (const bool overlap : {true, false}) {
        core::TimingOptions options;
        options.active_nodes = 16;
        options.use_matlb = matlb;
        options.use_stash_lock = stash;
        const auto result =
            comparator.run_accelerated(bert, "ablation", options, overlap);
        t.row()
            .cell(matlb ? "on" : "off")
            .cell(stash ? "on" : "off")
            .cell(overlap ? "on" : "off")
            .cell(result.gflops, 1);
      }
    }
  }
  t.print(std::cout, "Feature ablation on BERT (all three mechanisms)");
  std::cout << "\n";
}

void inner_tile_sweep() {
  const core::SystemTimingModel model(core::SystemConfig::maco_default());
  util::Table t({"Inner tile <ttr,ttc>", "2048^3 FP64 single node",
                 "efficiency"});
  for (const std::uint64_t inner : {16ull, 32ull, 64ull, 128ull}) {
    core::TimingOptions options;
    options.shape = sa::TileShape{2048, 2048, 2048};
    options.inner = inner;
    const core::SystemTiming timing = model.run(options);
    std::string label = "<";
    label += std::to_string(inner);
    label += ",";
    label += std::to_string(inner);
    label += ">";
    t.row()
        .cell(label)
        .cell(timing.total_gflops, 1)
        .percent(timing.mean_efficiency);
  }
  t.print(std::cout,
          "Second-level tile size sensitivity (paper uses <64,64>)");
  std::cout << "\n";
}

void page_size_sweep() {
  // What-if: larger translation pages. At 2 MiB the sTLB's reach covers
  // every working set, recurring walks vanish, and predictive translation
  // no longer buys anything — confirming the §IV.A premise that the gain
  // exists exactly because 4 KiB pages outrun the TLB.
  const core::SystemTimingModel model(core::SystemConfig::maco_default());
  util::Table t({"Page size", "walks/tile (2048^3)", "Gap with vs without"
                 " prediction"});
  for (const std::uint64_t page : {4096ull, 65536ull, 2097152ull}) {
    core::TimingOptions with;
    with.shape = sa::TileShape{2048, 2048, 2048};
    with.page_bytes = page;
    core::TimingOptions without = with;
    without.use_matlb = false;
    const auto twith = model.run(with);
    const auto twithout = model.run(without);
    t.row()
        .cell(page >= 1024 * 1024
                  ? std::to_string(page / (1024 * 1024)) + " MiB"
                  : std::to_string(page / 1024) + " KiB")
        .cell(twithout.translation.walks_per_tile, 1)
        .percent(twith.mean_efficiency - twithout.mean_efficiency);
  }
  t.print(std::cout,
          "Translation page-size sensitivity (single node, FP64)");
  std::cout << "\n";
}

void dram_efficiency_sweep() {
  util::Table t({"DDR efficiency", "16-node eff (4096^3)",
                 "1-node eff (4096^3)"});
  for (const double eff : {0.60, 0.72, 0.85, 1.00}) {
    core::SystemConfig config = core::SystemConfig::maco_default();
    config.dram_efficiency = eff;
    const core::SystemTimingModel model(config);
    core::TimingOptions options;
    options.shape = sa::TileShape{4096, 4096, 4096};
    options.active_nodes = 16;
    const double e16 = model.run(options).mean_efficiency;
    options.active_nodes = 1;
    const double e1 = model.run(options).mean_efficiency;
    t.row().percent(eff).percent(e16).percent(e1);
  }
  t.print(std::cout,
          "Sensitivity of the Fig. 7 multi-node loss to sustained DDR "
          "efficiency (calibrated value: 0.72)");
  std::cout << "\n";
}

}  // namespace

int main() {
  feature_grid();
  bert_grid();
  inner_tile_sweep();
  page_size_sweep();
  dram_efficiency_sweep();
  return 0;
}

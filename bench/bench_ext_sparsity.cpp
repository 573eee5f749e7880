// Extension study (beyond the paper): structured 2:4 weight sparsity on
// the MMAE's systolic array.
//
// The paper's related work surveys sparse CPU engines (SAVE, SparCE,
// VEGETA) but MACO itself is dense. This bench quantifies what the natural
// extension buys: B (weights) pruned 2:4 along the reduction axis,
// compressed preloads, and an index-select stage per pass.
#include <iostream>

#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"
#include "sa/sparse.hpp"
#include "util/table.hpp"

namespace {

using namespace maco;

void tile_level() {
  util::Table t({"Tile (m x n x k)", "Dense cycles", "2:4 cycles",
                 "Speedup", "1:4 speedup"});
  const sa::SparseSaConfig half{};
  sa::SparseSaConfig quarter;
  quarter.kept = 1;
  for (const std::uint64_t k : {64ull, 128ull, 256ull, 1024ull}) {
    const sa::TileShape shape{64, 64, k};
    const auto s2 = sa::compute_sparse_sa_timing(shape, half);
    const auto s1 = sa::compute_sparse_sa_timing(shape, quarter);
    t.row()
        .cell("64 x 64 x " + std::to_string(k))
        .cell(s2.dense_cycles)
        .cell(s2.sparse_cycles)
        .cell(s2.speedup, 2)
        .cell(s1.speedup, 2);
  }
  t.print(std::cout,
          "Per-tile systolic timing, dense vs structured-sparse B "
          "(4x4 array, FP64 mode)");
  std::cout << "\n";
}

void network_level() {
  // DNN weights pruned 2:4 (the usual recipe: attention/FFN weights
  // pruned, activations dense): per-layer speedup weighted by layer time.
  util::Table t({"Network", "Dense SA cycles", "2:4 SA cycles",
                 "End-to-end SA speedup"});
  const sa::SparseSaConfig config{};
  for (const char* model : {"resnet50-stage", "bert-block", "gpt3-block"}) {
    const wl::Workload workload =
        graph::lower(graph::builtin_graph(model)).workload;
    double dense = 0.0, sparse = 0.0;
    for (const auto& shape : workload.expanded_shapes()) {
      // Tile the layer as the AC does (64-wide inner tiles).
      const std::uint64_t tiles =
          ((shape.m + 63) / 64) * ((shape.n + 63) / 64);
      const sa::TileShape tile{64, 64, shape.k};
      const auto timing = sa::compute_sparse_sa_timing(tile, config);
      dense += static_cast<double>(timing.dense_cycles) *
               static_cast<double>(tiles);
      sparse += static_cast<double>(timing.sparse_cycles) *
                static_cast<double>(tiles);
    }
    t.row()
        .cell(workload.name)
        .cell(dense / 1e9, 2)
        .cell(sparse / 1e9, 2)
        .cell(dense / sparse, 2);
  }
  t.print(std::cout,
          "Network-level (giga-cycles of array time, weights pruned 2:4)");
  std::cout << "\nWith 64-wide inner tiles the select overhead amortizes "
               "everywhere, so 2:4\npruning sits just under its 2x bound "
               "across all three networks.\n";
}

}  // namespace

int main() {
  tile_level();
  network_level();
  return 0;
}

// Fig. 8: comparison with state-of-the-art solutions on deep-learning
// inference workloads (ResNet-50, BERT, GPT-3; FP32).
//
// All five systems are normalized to 256 processing elements (16x16, one
// FP32 MAC per PE per cycle) as in the paper:
//   Baseline-1  MACO, CPU only (software GEMM on the vector units)
//   Baseline-2  MACO with MMAEs, without the Section IV.B mapping scheme
//   Gem5-RASA   one core with an in-pipeline 16x16 engine (tightly coupled)
//   Gemmini     one host core with a 16x16 loosely-coupled engine
//   MACO        16 nodes x (CPU + 4x4 MMAE), full mapping scheme
#include <iostream>

#include "baselines/comparison.hpp"
#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"
#include "util/table.hpp"

int main() {
  using namespace maco;

  const baseline::Comparator comparator(core::SystemConfig::maco_default(),
                                        16);
  std::vector<wl::Workload> workloads;
  for (const char* model : {"resnet50-stage", "bert-block", "gpt3-block"}) {
    workloads.push_back(graph::lower(graph::builtin_graph(model)).workload);
  }

  util::Table t({"System", "Resnet-50", "BERT", "GPT3", "Geomean ratio"});
  std::vector<std::vector<baseline::ComparisonResult>> all;
  all.reserve(workloads.size());
  for (const auto& workload : workloads) {
    all.push_back(comparator.run_all(workload));
  }

  const std::size_t systems = all.front().size();
  const std::size_t maco_index = systems - 1;
  for (std::size_t s = 0; s < systems; ++s) {
    auto row = t.row();
    row.cell(all.front()[s].system);
    double ratio_product = 1.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      row.cell(all[w][s].gflops, 1);
      ratio_product *= all[w][maco_index].gflops / all[w][s].gflops;
    }
    const double geomean =
        std::pow(ratio_product, 1.0 / static_cast<double>(workloads.size()));
    row.cell(s == maco_index
                 ? std::string("1.00x")
                 : "MACO " + util::format_double(geomean, 2) + "x faster");
  }
  t.print(std::cout,
          "Fig. 8: throughput (GFLOPS) on DL inference, all systems at "
          "256 PEs, FP32");

  // The headline claim.
  double best = 0.0;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    best = std::max(best, all[w][maco_index].gflops);
  }
  std::cout << "\nMACO peak across workloads: "
            << util::format_double(best / 1000.0, 2) << " TFLOPS at "
            << util::format_double(
                   best * 1e9 / comparator.accelerator_peak_flops() * 100.0,
                   1)
            << "% of the normalized 1.28 TFLOPS peak"
            << " (paper: up to 1.1 TFLOPS at 88%).\n"
            << "Paper ratios: 3.30x Baseline-1, 1.45x Baseline-2, "
               "1.35x RASA, 1.30x Gemmini (averages).\n";
  return 0;
}

// Gantt rendering of span traces through the `macosim trace` path.
#include <gtest/gtest.h>

#include "core/mapped_gemm.hpp"
#include "driver/trace_cmd.hpp"
#include "obs/collector.hpp"
#include "obs/trace_writer.hpp"
#include "util/rng.hpp"

namespace maco::driver {
namespace {

// Writes `spans` as a trace file and renders it back, as --trace-out and
// `macosim trace` do.
std::string gantt(std::vector<obs::SpanRec> spans, std::size_t width) {
  obs::RunObservation observation;
  observation.spans = std::move(spans);
  return render_trace(obs::to_perfetto_json(observation), width).gantt;
}

TEST(Timeline, BoundsAndDuration) {
  const std::string chart =
      gantt({{"cpu", "setup", 100, 300}, {"mmae", "gemm", 200, 900}}, 10);
  // The summary spans the first start (100 ps) to the last end (900 ps).
  EXPECT_EQ(chart.rfind("2 span(s) on 2 track(s), 0.0008 us\n", 0), 0u)
      << chart;
  EXPECT_NE(chart.find("timeline 0.0008 us"), std::string::npos) << chart;
  // gemm's 700 ps cover the last 9 of 10 columns.
  EXPECT_NE(chart.find("mmae |.MMMMMMMMM|"), std::string::npos) << chart;
}

TEST(Timeline, AsciiRowsPerTrackInFirstAppearanceOrder) {
  const std::string chart =
      gantt({{"node1.mmae", "b", 0, 50}, {"node0.mmae", "a", 50, 100}}, 10);
  const auto pos1 = chart.find("node1.mmae");
  const auto pos0 = chart.find("node0.mmae");
  ASSERT_NE(pos1, std::string::npos);
  ASSERT_NE(pos0, std::string::npos);
  EXPECT_LT(pos1, pos0);  // first appearance first
}

TEST(Timeline, AsciiMarksSpanCells) {
  const std::string chart =
      gantt({{"t", "xxg", 0, 500}, {"t", "yyh", 500, 1000}}, 10);
  EXPECT_NE(chart.find("|GGGGGHHHHH|"), std::string::npos) << chart;
}

TEST(Timeline, ImportsMmaeReportsFromARealRun) {
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.node_count = 2;
  core::MacoSystem system(config);
  core::Process& process = system.create_process();
  util::Rng rng(5);

  const auto a_desc = system.alloc_matrix(process, 96, 64);
  const auto b_desc = system.alloc_matrix(process, 64, 96);
  const auto c_desc = system.alloc_matrix(process, 96, 96);
  system.write_matrix(process, a_desc, sa::HostMatrix::random(96, 64, rng));
  system.write_matrix(process, b_desc, sa::HostMatrix::random(64, 96, rng));
  system.write_matrix(process, c_desc, sa::HostMatrix(96, 96));

  core::MappedGemmRunner runner(system);
  ASSERT_TRUE(runner.run(process, a_desc, b_desc, c_desc, {}).ok);

  std::vector<obs::SpanRec> spans;
  for (unsigned node = 0; node < system.node_count(); ++node) {
    obs::append_mmae_spans(system, node, spans);
  }
  // Stashes + packs + GEMMs + unpacks from both nodes.
  EXPECT_GE(spans.size(), 8u);
  // The chart renders one row per node.
  const std::string chart = gantt(spans, 40);
  EXPECT_NE(chart.find("on 2 track(s)"), std::string::npos) << chart;
  EXPECT_NE(chart.find("node0.mmae"), std::string::npos);
  EXPECT_NE(chart.find("node1.mmae"), std::string::npos);
}

}  // namespace
}  // namespace maco::driver

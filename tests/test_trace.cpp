// Timeline collection and rendering.
#include <gtest/gtest.h>

#include "core/mapped_gemm.hpp"
#include "trace/timeline.hpp"
#include "util/rng.hpp"

namespace maco::trace {
namespace {

TEST(Timeline, BoundsAndDuration) {
  Timeline timeline;
  timeline.add("cpu", "setup", 100, 300);
  timeline.add("mmae", "gemm", 200, 900);
  EXPECT_EQ(timeline.begin_ps(), 100u);
  EXPECT_EQ(timeline.end_ps(), 900u);
  EXPECT_EQ(timeline.spans()[1].duration(), 700u);
}

TEST(Timeline, AsciiRowsPerTrackInFirstAppearanceOrder) {
  Timeline timeline;
  timeline.add("node1.mmae", "b", 0, 50);
  timeline.add("node0.mmae", "a", 50, 100);
  const std::string chart = timeline.render_ascii(10);
  const auto pos1 = chart.find("node1.mmae");
  const auto pos0 = chart.find("node0.mmae");
  ASSERT_NE(pos1, std::string::npos);
  ASSERT_NE(pos0, std::string::npos);
  EXPECT_LT(pos1, pos0);  // first appearance first
}

TEST(Timeline, AsciiMarksSpanCells) {
  Timeline timeline;
  timeline.add("t", "xxg", 0, 500);    // mark 'G'
  timeline.add("t", "yyh", 500, 1000); // mark 'H'
  const std::string chart = timeline.render_ascii(10);
  EXPECT_NE(chart.find('G'), std::string::npos);
  EXPECT_NE(chart.find('H'), std::string::npos);
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

  Timeline timeline;
  for (unsigned node = 0; node < system.node_count(); ++node) {
    timeline.import_reports("node" + std::to_string(node) + ".mmae",
                            system.node(node).mmae().reports());
  }
  // Stashes + packs + GEMMs + unpacks from both nodes.
  EXPECT_GE(timeline.spans().size(), 8u);
  EXPECT_GT(timeline.end_ps(), timeline.begin_ps());
  // The chart renders one row per node.
  const std::string chart = timeline.render_ascii(40);
  EXPECT_NE(chart.find("node0.mmae"), std::string::npos);
  EXPECT_NE(chart.find("node1.mmae"), std::string::npos);
}

}  // namespace
}  // namespace maco::trace

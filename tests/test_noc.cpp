#include <gtest/gtest.h>

#include <map>

#include "flit_mesh/mesh.hpp"
#include "noc/link_load_model.hpp"
#include "sim/engine.hpp"

namespace maco::noc {
namespace {

TEST(Router, XyRouting) {
  Router r(5, 1, 1, RouterConfig{});  // node 5 of a 4×4 mesh
  EXPECT_EQ(r.route(3, 1), Port::kEast);
  EXPECT_EQ(r.route(0, 1), Port::kWest);
  EXPECT_EQ(r.route(1, 3), Port::kSouth);
  EXPECT_EQ(r.route(1, 0), Port::kNorth);
  EXPECT_EQ(r.route(1, 1), Port::kLocal);
  // X before Y: a diagonal destination goes east first.
  EXPECT_EQ(r.route(3, 3), Port::kEast);
}

TEST(Router, BufferSpaceEnforced) {
  RouterConfig config;
  config.vc_depth = 2;
  Router r(0, 0, 0, config);
  Packet pkt;
  EXPECT_TRUE(r.has_buffer_space(Port::kLocal, 0));
  r.accept_flit(Port::kLocal, 0, Flit{&pkt, true, false});
  r.accept_flit(Port::kLocal, 0, Flit{&pkt, false, true});
  EXPECT_FALSE(r.has_buffer_space(Port::kLocal, 0));
  EXPECT_TRUE(r.has_buffer_space(Port::kLocal, 1));  // other VC independent
}

class MeshTest : public ::testing::Test {
 protected:
  MeshTest() : mesh_(engine_, MeshConfig{}) {
    for (unsigned n = 0; n < mesh_.node_count(); ++n) {
      mesh_.register_endpoint(
          static_cast<NodeId>(n),
          [this, n](const Packet& p) { received_[n].push_back(p); });
    }
  }

  sim::SimEngine engine_;
  MeshNetwork mesh_;
  std::map<unsigned, std::vector<Packet>> received_;
};

TEST_F(MeshTest, DeliversSinglePacket) {
  Packet pkt;
  pkt.src = 0;
  pkt.dst = 15;
  pkt.payload_bytes = 64;
  mesh_.inject(pkt);
  engine_.run();
  ASSERT_EQ(received_[15].size(), 1u);
  EXPECT_EQ(received_[15][0].src, 0);
  EXPECT_EQ(mesh_.packets_delivered(), 1u);
}

TEST_F(MeshTest, LatencyScalesWithDistance) {
  Packet near;
  near.src = 0;
  near.dst = 1;
  near.payload_bytes = 0;
  mesh_.inject(near);
  engine_.run();
  const double lat_near = mesh_.mean_packet_latency_ps();

  sim::SimEngine engine2;
  MeshNetwork mesh2(engine2, MeshConfig{});
  mesh2.register_endpoint(15, [](const Packet&) {});
  Packet far;
  far.src = 0;
  far.dst = 15;
  far.payload_bytes = 0;
  mesh2.inject(far);
  engine2.run();
  EXPECT_GT(mesh2.mean_packet_latency_ps(), lat_near);
}

TEST_F(MeshTest, SelfDelivery) {
  Packet pkt;
  pkt.src = 3;
  pkt.dst = 3;
  pkt.payload_bytes = 8;
  mesh_.inject(pkt);
  engine_.run();
  EXPECT_EQ(received_[3].size(), 1u);
}

TEST_F(MeshTest, ManyToOneAllArrive) {
  for (unsigned src = 0; src < 16; ++src) {
    Packet pkt;
    pkt.src = static_cast<NodeId>(src);
    pkt.dst = 5;
    pkt.payload_bytes = 64;
    mesh_.inject(pkt);
  }
  engine_.run();
  EXPECT_EQ(received_[5].size(), 16u);
}

TEST_F(MeshTest, AllToAllUniformDelivers) {
  unsigned expected = 0;
  for (unsigned src = 0; src < 16; ++src) {
    for (unsigned dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      Packet pkt;
      pkt.src = static_cast<NodeId>(src);
      pkt.dst = static_cast<NodeId>(dst);
      pkt.payload_bytes = 32;
      pkt.msg_class = (src + dst) % 2 ? MsgClass::kResponse
                                      : MsgClass::kRequest;
      mesh_.inject(pkt);
      ++expected;
    }
  }
  engine_.run();
  EXPECT_EQ(mesh_.packets_delivered(), expected);
}

TEST_F(MeshTest, MultiFlitPacketStaysContiguous) {
  // Two big packets from different sources to the same destination: wormhole
  // ownership must keep each packet's flits together (delivery happens once,
  // on the tail).
  Packet a;
  a.src = 0;
  a.dst = 15;
  a.payload_bytes = 256;  // ~9 flits
  Packet b;
  b.src = 3;
  b.dst = 15;
  b.payload_bytes = 256;
  mesh_.inject(a);
  mesh_.inject(b);
  engine_.run();
  EXPECT_EQ(received_[15].size(), 2u);
}

TEST_F(MeshTest, FlitCountsMatchPayload) {
  EXPECT_EQ(mesh_.flits_for(0), 1u);        // header only
  EXPECT_EQ(mesh_.flits_for(24), 1u);       // 24+8 = 32 -> one flit
  EXPECT_EQ(mesh_.flits_for(25), 2u);
  EXPECT_EQ(mesh_.flits_for(64), 3u);       // 72 bytes -> 3 flits
}

TEST(MeshThroughput, SaturatesNearLinkRate) {
  // Stream many single-flit packets across one link: delivered flit rate
  // should approach 1 flit/cycle.
  sim::SimEngine engine;
  MeshConfig config;
  config.width = 2;
  config.height = 1;
  MeshNetwork mesh(engine, config);
  mesh.register_endpoint(1, [](const Packet&) {});
  const unsigned packets = 200;
  for (unsigned i = 0; i < packets; ++i) {
    Packet pkt;
    pkt.src = 0;
    pkt.dst = 1;
    pkt.payload_bytes = 16;  // single flit
    mesh.inject(pkt);
  }
  const sim::TimePs end = engine.run();
  const double cycles = static_cast<double>(end) / config.cycle_ps;
  EXPECT_LT(cycles, packets * 1.5 + 20);  // near 1 packet/cycle
  EXPECT_EQ(mesh.packets_delivered(), packets);
}

TEST(LinkLoad, HopCount) {
  const unsigned width = LinkLoadConfig{}.width;
  EXPECT_EQ(xy_hop_count(width, 0, 0), 0u);
  EXPECT_EQ(xy_hop_count(width, 0, 3), 3u);
  EXPECT_EQ(xy_hop_count(width, 0, 15), 6u);
  EXPECT_EQ(xy_hop_count(width, 5, 6), 1u);
}

TEST(LinkLoad, SingleFlowUtilization) {
  LinkLoadModel model(LinkLoadConfig{});
  model.add_flow(0, 3, 32e9);  // half a 64 GB/s link
  EXPECT_DOUBLE_EQ(model.max_utilization(), 0.5);
  EXPECT_DOUBLE_EQ(model.path_utilization(0, 3), 0.5);
  EXPECT_DOUBLE_EQ(model.flow_rate_scale(0, 3), 1.0);
}

TEST(LinkLoad, OversubscriptionSlowsFlows) {
  LinkLoadModel model(LinkLoadConfig{});
  model.add_flow(0, 3, 64e9);
  model.add_flow(1, 3, 64e9);  // shares links 1->2->3
  EXPECT_GT(model.max_utilization(), 1.0);
  EXPECT_LT(model.flow_rate_scale(1, 3), 1.0);
}

TEST(LinkLoad, DisjointPathsDoNotInterfere) {
  LinkLoadModel model(LinkLoadConfig{});
  model.add_flow(0, 1, 64e9);
  model.add_flow(8, 9, 64e9);
  EXPECT_DOUBLE_EQ(model.path_utilization(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(model.path_utilization(8, 9), 1.0);
  EXPECT_DOUBLE_EQ(model.max_utilization(), 1.0);
}

TEST(LinkLoad, EjectionLinkCounted) {
  LinkLoadModel model(LinkLoadConfig{});
  // Two flows converging on node 3's ejection port.
  model.add_flow(0, 3, 48e9);
  model.add_flow(7, 3, 48e9);
  EXPECT_GT(model.path_utilization(0, 3), 1.0);  // 96 GB/s into one ejector
}

// Cross-validation: the analytic model's saturation prediction matches the
// flit-level mesh for a two-flows-one-link pattern.
TEST(LinkLoadValidation, MatchesFlitLevelSaturation) {
  sim::SimEngine engine;
  MeshConfig config;
  config.width = 4;
  config.height = 1;
  MeshNetwork mesh(engine, config);
  mesh.register_endpoint(3, [](const Packet&) {});
  // Nodes 0 and 1 each stream to node 3; the 2->3 link is the bottleneck.
  const unsigned per_source = 100;
  for (unsigned i = 0; i < per_source; ++i) {
    for (NodeId src : {0, 1}) {
      Packet pkt;
      pkt.src = src;
      pkt.dst = 3;
      pkt.payload_bytes = 24;  // single flit
      mesh.inject(pkt);
    }
  }
  const sim::TimePs end = engine.run();
  const double cycles = static_cast<double>(end) / config.cycle_ps;
  // 200 flits through one link ≈ 200 cycles (±fill).
  EXPECT_NEAR(cycles, 200.0, 30.0);

  LinkLoadConfig llc;
  llc.width = 4;
  llc.height = 1;
  LinkLoadModel model(llc);
  model.add_flow(0, 3, 64e9);
  model.add_flow(1, 3, 64e9);
  EXPECT_NEAR(model.max_utilization(), 2.0, 1e-9);  // 2× oversubscribed
}

}  // namespace
}  // namespace maco::noc

namespace maco::noc {
namespace {

TEST(MeshVc, DifferentMessageClassesUseDifferentVcs) {
  // Requests and responses travel in separate virtual channels: a long
  // request wormhole must not block a response on the same physical link.
  sim::SimEngine engine;
  MeshConfig config;
  config.width = 4;
  config.height = 1;
  MeshNetwork mesh(engine, config);
  std::vector<std::uint64_t> arrivals;
  mesh.register_endpoint(3, [&arrivals](const Packet& pkt) {
    arrivals.push_back(pkt.id);
  });

  Packet big;  // 16-flit request wormhole 0 -> 3
  big.src = 0;
  big.dst = 3;
  big.payload_bytes = 500;
  big.msg_class = MsgClass::kRequest;
  const auto big_id = mesh.inject(big);

  Packet small;  // single-flit response right behind it
  small.src = 0;
  small.dst = 3;
  small.payload_bytes = 8;
  small.msg_class = MsgClass::kResponse;
  const auto small_id = mesh.inject(small);

  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // The response overtakes the long request thanks to its own VC.
  EXPECT_EQ(arrivals.front(), small_id);
  EXPECT_EQ(arrivals.back(), big_id);
}

TEST(MeshVc, SameClassKeepsFifo) {
  sim::SimEngine engine;
  MeshConfig config;
  config.width = 4;
  config.height = 1;
  MeshNetwork mesh(engine, config);
  std::vector<std::uint64_t> arrivals;
  mesh.register_endpoint(3, [&arrivals](const Packet& pkt) {
    arrivals.push_back(pkt.id);
  });
  Packet big;
  big.src = 0;
  big.dst = 3;
  big.payload_bytes = 500;
  const auto first = mesh.inject(big);
  Packet small = big;
  small.payload_bytes = 8;
  const auto second = mesh.inject(small);
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals.front(), first);   // same VC: wormhole order holds
  EXPECT_EQ(arrivals.back(), second);
}

}  // namespace
}  // namespace maco::noc

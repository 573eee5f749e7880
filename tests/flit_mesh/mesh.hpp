// Flit-level 2D-mesh network simulation.
//
// A test-only reference: tests/test_noc.cpp and tests/test_properties.cpp
// validate the analytic link-load model (noc/link_load_model.hpp) against
// it; the detailed machine charges NoC time through noc::IcntModel. While
// any flit is queued or in flight the mesh schedules one engine event per
// NoC cycle (move, then inject); idle, it schedules nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "flit_mesh/packet.hpp"
#include "flit_mesh/router.hpp"
#include "noc/mesh_config.hpp"
#include "sim/engine.hpp"

namespace maco::noc {

class MeshNetwork {
 public:
  using DeliverFn = std::function<void(const Packet&)>;

  // Every router gets the default RouterConfig (2 VCs of 4 flits).
  MeshNetwork(sim::SimEngine& engine, const MeshConfig& config);
  MeshNetwork(const MeshNetwork&) = delete;
  MeshNetwork& operator=(const MeshNetwork&) = delete;

  const MeshConfig& config() const noexcept { return config_; }
  unsigned node_count() const noexcept {
    return config_.width * config_.height;
  }

  // Endpoint receives packets ejected at `node`.
  void register_endpoint(NodeId node, DeliverFn deliver);

  // Queue a packet for injection at its source node; returns the packet id.
  std::uint64_t inject(Packet packet);

  // Number of flits a packet of `payload_bytes` occupies.
  unsigned flits_for(std::uint32_t payload_bytes) const noexcept;

  // Statistics.
  std::uint64_t packets_delivered() const noexcept { return delivered_; }
  double mean_packet_latency_ps() const noexcept {
    return delivered_ ? latency_sum_ps_ / static_cast<double>(delivered_)
                      : 0.0;
  }

 private:
  void pump();            // ensure the next cycle's tick is scheduled
  void tick();            // one NoC cycle (move, then inject)
  void try_injections();
  void move_flits();
  void deliver(const Flit& flit);

  struct Move {
    Router* router;
    Port in_port;
    unsigned in_vc;
    Port out_port;
    unsigned out_vc;
  };

  sim::SimEngine& engine_;
  MeshConfig config_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<DeliverFn> endpoints_;
  std::vector<std::deque<Flit>> injection_queues_;  // per node, flit-expanded
  // Every injected packet; a deque keeps the flits' pointers stable.
  std::deque<Packet> packets_;
  std::vector<Move> moves_;        // scratch, reused across cycles
  std::uint64_t flits_in_flight_ = 0;  // injection queues + router buffers
  bool tick_scheduled_ = false;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t delivered_ = 0;
  double latency_sum_ps_ = 0.0;
};

}  // namespace maco::noc

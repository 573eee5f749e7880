#include "flit_mesh/mesh.hpp"

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace maco::noc {

MeshNetwork::MeshNetwork(sim::SimEngine& engine, const MeshConfig& config)
    : engine_(engine), config_(config),
      endpoints_(node_count()), injection_queues_(node_count()) {
  MACO_ASSERT(config.width > 0 && config.height > 0);
  routers_.reserve(node_count());
  for (unsigned y = 0; y < config.height; ++y) {
    for (unsigned x = 0; x < config.width; ++x) {
      const NodeId id = static_cast<NodeId>(y * config.width + x);
      routers_.push_back(std::make_unique<Router>(id, x, y, RouterConfig{}));
    }
  }
}

void MeshNetwork::register_endpoint(NodeId node, DeliverFn deliver) {
  MACO_ASSERT(node >= 0 && node < static_cast<NodeId>(node_count()));
  endpoints_[node] = std::move(deliver);
}

unsigned MeshNetwork::flits_for(std::uint32_t payload_bytes) const noexcept {
  const std::uint32_t total = payload_bytes + config_.header_bytes;
  return static_cast<unsigned>(
      util::ceil_div(total, config_.flit_bytes));
}

std::uint64_t MeshNetwork::inject(Packet packet) {
  MACO_ASSERT(packet.src >= 0 &&
              packet.src < static_cast<NodeId>(node_count()));
  MACO_ASSERT(packet.dst >= 0 &&
              packet.dst < static_cast<NodeId>(node_count()));
  packet.id = next_packet_id_++;
  packet.injected_at = engine_.now();
  const unsigned flits = flits_for(packet.payload_bytes);
  Packet* slot = &packets_.emplace_back(packet);
  for (unsigned i = 0; i < flits; ++i) {
    injection_queues_[packet.src].push_back(
        Flit{slot, i == 0, i == flits - 1});
  }
  flits_in_flight_ += flits;
  pump();
  return packet.id;
}

void MeshNetwork::pump() {
  if (tick_scheduled_) return;
  tick_scheduled_ = true;
  // Align to the next NoC clock edge.
  const sim::TimePs edge =
      util::align_up(engine_.now() + 1, config_.cycle_ps);
  engine_.schedule_at(edge, [this] { tick(); });
}

void MeshNetwork::tick() {
  tick_scheduled_ = false;
  move_flits();
  try_injections();
  if (flits_in_flight_ > 0) pump();
}

void MeshNetwork::try_injections() {
  for (unsigned node = 0; node < node_count(); ++node) {
    auto& queue = injection_queues_[node];
    Router& router = *routers_[node];
    while (!queue.empty()) {
      const unsigned vc =
          static_cast<unsigned>(queue.front().packet->msg_class) %
          router.vc_count();
      if (!router.has_buffer_space(Port::kLocal, vc)) break;
      router.accept_flit(Port::kLocal, vc, queue.front());
      queue.pop_front();
    }
  }
}

void MeshNetwork::move_flits() {
  // Phase 1: gather at most one grant per (router, output port, vc) based on
  // pre-move state; phase 2: apply all moves. This mirrors simultaneous
  // register updates in hardware.
  moves_.clear();

  for (auto& router_ptr : routers_) {
    Router& router = *router_ptr;
    for (unsigned out = 0; out < kPortCount; ++out) {
      const Port out_port = static_cast<Port>(out);
      for (unsigned vc = 0; vc < router.vc_count(); ++vc) {
        // Determine the (in_port, in_vc) allowed to send this cycle.
        auto& owner = router.ownership(out_port, vc);
        int chosen_in = -1;
        if (owner.held) {
          // Wormhole: only the owning input may continue the packet.
          const auto& q = router.queue(static_cast<Port>(owner.in_port),
                                       owner.in_vc);
          if (!q.flits.empty() && owner.in_vc == vc) {
            const Flit& head = q.flits.front();
            const Port routed = head.head
                ? router.route(
                      static_cast<unsigned>(head.packet->dst) %
                          config_.width,
                      static_cast<unsigned>(head.packet->dst) /
                          config_.width)
                : out_port;
            if (routed == out_port) chosen_in = static_cast<int>(owner.in_port);
          }
        } else {
          // Round-robin over input ports; only head flits can claim.
          unsigned& rr = router.rr_pointer(out_port);
          for (unsigned probe = 0; probe < kPortCount; ++probe) {
            const unsigned in = (rr + probe) % kPortCount;
            const auto& q = router.queue(static_cast<Port>(in), vc);
            if (q.flits.empty() || !q.flits.front().head) continue;
            const Packet& pkt = *q.flits.front().packet;
            const Port routed = router.route(
                static_cast<unsigned>(pkt.dst) % config_.width,
                static_cast<unsigned>(pkt.dst) / config_.width);
            if (routed != out_port) continue;
            if (static_cast<unsigned>(pkt.msg_class) % router.vc_count() !=
                vc) {
              continue;
            }
            chosen_in = static_cast<int>(in);
            rr = (in + 1) % kPortCount;
            break;
          }
        }
        if (chosen_in < 0) continue;

        // Check downstream space (or ejection, which always accepts).
        if (out_port != Port::kLocal) {
          const unsigned nx = router.x() + (out_port == Port::kEast ? 1 : 0) -
                              (out_port == Port::kWest ? 1 : 0);
          const unsigned ny = router.y() + (out_port == Port::kSouth ? 1 : 0) -
                              (out_port == Port::kNorth ? 1 : 0);
          const Router& next = *routers_[ny * config_.width + nx];
          if (!next.has_buffer_space(opposite(out_port), vc)) continue;
        }
        moves_.push_back(Move{&router, static_cast<Port>(chosen_in), vc,
                              out_port, vc});
      }
    }
  }

  for (const Move& mv : moves_) {
    Router& router = *mv.router;
    auto& q = router.queue(mv.in_port, mv.in_vc);
    MACO_ASSERT(!q.flits.empty());
    const Flit flit = q.flits.front();
    q.flits.pop_front();
    router.count_forward(mv.out_port);

    auto& owner = router.ownership(mv.out_port, mv.out_vc);
    if (flit.head) {
      owner.held = true;
      owner.in_port = static_cast<unsigned>(mv.in_port);
      owner.in_vc = mv.in_vc;
    }
    if (flit.tail) owner.held = false;

    if (mv.out_port == Port::kLocal) {
      MACO_ASSERT(flits_in_flight_ > 0);
      --flits_in_flight_;  // the flit leaves the network at ejection
      deliver(flit);
    } else {
      const unsigned nx = router.x() + (mv.out_port == Port::kEast ? 1 : 0) -
                          (mv.out_port == Port::kWest ? 1 : 0);
      const unsigned ny = router.y() + (mv.out_port == Port::kSouth ? 1 : 0) -
                          (mv.out_port == Port::kNorth ? 1 : 0);
      routers_[ny * config_.width + nx]->accept_flit(opposite(mv.out_port),
                                                     mv.out_vc, flit);
    }
  }
}

void MeshNetwork::deliver(const Flit& flit) {
  if (!flit.tail) return;  // deliver the packet once, on its tail flit
  const Packet& pkt = *flit.packet;
  ++delivered_;
  latency_sum_ps_ += static_cast<double>(engine_.now() - pkt.injected_at);
  if (endpoints_[pkt.dst]) endpoints_[pkt.dst](pkt);
}

}  // namespace maco::noc

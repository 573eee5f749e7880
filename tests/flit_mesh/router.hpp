// Input-queued wormhole router with per-VC buffers and round-robin output
// arbitration. One flit per output port per cycle; per-hop latency is one
// NoC cycle (router + link combined).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "flit_mesh/packet.hpp"

namespace maco::noc {

enum class Port : unsigned {
  kLocal = 0,
  kNorth = 1,  // -y
  kSouth = 2,  // +y
  kEast = 3,   // +x
  kWest = 4,   // -x
};
inline constexpr unsigned kPortCount = 5;

constexpr Port opposite(Port p) noexcept {
  switch (p) {
    case Port::kLocal: return Port::kLocal;
    case Port::kNorth: return Port::kSouth;
    case Port::kSouth: return Port::kNorth;
    case Port::kEast: return Port::kWest;
    case Port::kWest: return Port::kEast;
  }
  return Port::kLocal;
}

struct RouterConfig {
  unsigned vc_count = 2;
  unsigned vc_depth = 4;  // flits of buffering per VC
};

class Router {
 public:
  Router(NodeId id, unsigned x, unsigned y, const RouterConfig& config);

  NodeId id() const noexcept { return id_; }
  unsigned x() const noexcept { return x_; }
  unsigned y() const noexcept { return y_; }

  // X-Y dimension-ordered routing: resolve the output port toward `dst`.
  Port route(unsigned dst_x, unsigned dst_y) const noexcept;

  bool has_buffer_space(Port in, unsigned vc) const noexcept;
  void accept_flit(Port in, unsigned vc, Flit flit);

  struct InputQueue {
    std::deque<Flit> flits;
  };
  InputQueue& queue(Port in, unsigned vc) noexcept {
    return queues_[static_cast<unsigned>(in) * vc_count_ + vc];
  }
  const InputQueue& queue(Port in, unsigned vc) const noexcept {
    return queues_[static_cast<unsigned>(in) * vc_count_ + vc];
  }

  unsigned vc_count() const noexcept { return vc_count_; }
  unsigned vc_depth() const noexcept { return vc_depth_; }
  bool any_flits() const noexcept;

  // Wormhole ownership of an (output port, vc) by an (input port, vc),
  // held from head grant to tail departure.
  struct Ownership {
    bool held = false;
    unsigned in_port = 0;
    unsigned in_vc = 0;
  };
  Ownership& ownership(Port out, unsigned vc) noexcept {
    return owners_[static_cast<unsigned>(out) * vc_count_ + vc];
  }

  // Round-robin pointer per output port for fair arbitration.
  unsigned& rr_pointer(Port out) noexcept {
    return rr_[static_cast<unsigned>(out)];
  }

  // Statistics.
  std::uint64_t flits_forwarded(Port out) const noexcept {
    return forwarded_[static_cast<unsigned>(out)];
  }
  void count_forward(Port out) noexcept {
    ++forwarded_[static_cast<unsigned>(out)];
  }

 private:
  NodeId id_;
  unsigned x_;
  unsigned y_;
  unsigned vc_count_;
  unsigned vc_depth_;
  std::vector<InputQueue> queues_;   // [port][vc]
  std::vector<Ownership> owners_;    // [port][vc]
  std::array<unsigned, kPortCount> rr_{};
  std::array<std::uint64_t, kPortCount> forwarded_{};
};

}  // namespace maco::noc

// NoC packet and flit types.
//
// The paper's NoC: 4×4 2D mesh, X-Y dimension-ordered routing, virtual
// channels, 256-bit links at 2 GHz (64 GB/s per direction per link, i.e. the
// quoted 128 GB/s bidirectional per compute node).
#pragma once

#include <cstdint>

#include "noc/mesh_config.hpp"
#include "sim/time.hpp"

namespace maco::noc {

// Message class maps to a virtual channel; separating requests from
// responses keeps the cache-coherence protocol deadlock-free on top of the
// deadlock-free X-Y routing.
enum class MsgClass : unsigned { kRequest = 0, kResponse = 1 };

struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t payload_bytes = 0;
  MsgClass msg_class = MsgClass::kRequest;
  std::uint64_t id = 0;        // unique, assigned at injection
  std::uint64_t user_tag = 0;  // opaque cookie for the endpoint protocol
  sim::TimePs injected_at = 0;
};

// A flit references its packet without owning it. The mesh owns the packets
// it injects; standalone router tests may point flits at stack-owned
// packets.
struct Flit {
  Packet* packet = nullptr;
  bool head = false;
  bool tail = false;
};

}  // namespace maco::noc

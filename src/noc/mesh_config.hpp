// The NoC's geometry: the paper's 4×4 2D mesh with X-Y dimension-ordered
// routing and 256-bit links at 2 GHz (64 GB/s per direction per link).
//
// SystemConfig holds the one MeshConfig; the analytic link-load model
// (link_load_config()) and the detailed machine's interconnect backends
// (icnt_config()) both derive their parameters from it.
#pragma once

#include "sim/time.hpp"

namespace maco::noc {

// Mesh node index, row-major: node = y * width + x.
using NodeId = int;

// Largest mesh side the `mesh_width`/`mesh_height` knobs accept.
inline constexpr unsigned kMaxMeshSide = 32;

struct MeshConfig {
  unsigned width = 4;
  unsigned height = 4;
  unsigned flit_bytes = 32;    // 256-bit links
  unsigned header_bytes = 8;   // routing/command header in the head flit
  sim::TimePs cycle_ps = 500;  // 2 GHz; one NoC cycle per hop
};

}  // namespace maco::noc

// The NoC's geometry: the paper's 4×4 2D mesh with X-Y dimension-ordered
// routing and 256-bit links at 2 GHz (64 GB/s per direction per link).
//
// SystemConfig holds the one MeshConfig; the analytic link-load model
// (link_load_config()) and the detailed machine's interconnect backends
// (icnt_config()) both derive their parameters from it, and both route
// with xy_hop_count and for_each_xy_link below.
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

// X-Y hop count on a mesh `width` nodes wide (zero for src == dst;
// excludes in/ejection).
constexpr unsigned xy_hop_count(unsigned width, unsigned src,
                                unsigned dst) noexcept {
  const unsigned sx = src % width;
  const unsigned sy = src / width;
  const unsigned dx = dst % width;
  const unsigned dy = dst / width;
  return (sx > dx ? sx - dx : dx - sx) + (sy > dy ? sy - dy : dy - sy);
}

// Visits each directed link on the X-Y route src -> dst, including the
// final ejection port (X first, then Y, matching the flit mesh's
// Router::route in tests/flit_mesh/). Five directed links per node:
// link index = node * 5 + direction.
template <typename Fn>
void for_each_xy_link(unsigned width, unsigned src, unsigned dst, Fn&& fn) {
  enum : unsigned { kEject = 0, kNorth = 1, kSouth = 2, kEast = 3, kWest = 4 };
  unsigned x = src % width;
  unsigned y = src / width;
  const unsigned dx = dst % width;
  const unsigned dy = dst / width;
  while (x != dx) {
    const unsigned node = y * width + x;
    if (dx > x) {
      fn(node * 5 + kEast);
      ++x;
    } else {
      fn(node * 5 + kWest);
      --x;
    }
  }
  while (y != dy) {
    const unsigned node = y * width + x;
    if (dy > y) {
      fn(node * 5 + kSouth);
      ++y;
    } else {
      fn(node * 5 + kNorth);
      --y;
    }
  }
  fn(dst * 5 + kEject);
}

}  // namespace maco::noc

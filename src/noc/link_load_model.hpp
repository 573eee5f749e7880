// Analytic NoC contention model.
//
// For paper-scale runs, flit-level simulation of months of traffic is
// intractable; instead, steady-state flows (bytes/s between node pairs) are
// projected onto the links their X-Y route traverses. The most-loaded link
// determines the saturation slowdown — exactly the effect the paper cites
// for the ~10 % multi-node efficiency loss ("NOC being unable to meet the
// bandwidth requirements of all compute nodes working in parallel").
// Tests cross-validate this model against the flit-level mesh
// (tests/flit_mesh/).
#pragma once

#include <cstdint>
#include <vector>

#include "noc/mesh_config.hpp"

namespace maco::noc {

struct LinkLoadConfig {
  unsigned width = 4;
  unsigned height = 4;
  double link_bytes_per_second = 64.0e9;  // 256-bit @ 2 GHz, per direction
};

class LinkLoadModel {
 public:
  explicit LinkLoadModel(const LinkLoadConfig& config);

  void add_flow(NodeId src, NodeId dst, double bytes_per_second);
  void clear();

  // Peak utilization across all links (can exceed 1.0 when oversubscribed).
  double max_utilization() const noexcept;
  // Utilization of the most-loaded link on the X-Y path src -> dst.
  double path_utilization(NodeId src, NodeId dst) const noexcept;
  // Achieved-throughput scaling for a flow on that path: 1.0 when the path
  // is unsaturated, otherwise 1/utilization (proportional sharing).
  double flow_rate_scale(NodeId src, NodeId dst) const noexcept {
    const double u = path_utilization(src, dst);
    return u <= 1.0 ? 1.0 : 1.0 / u;
  }

  double link_capacity() const noexcept {
    return config_.link_bytes_per_second;
  }

 private:
  LinkLoadConfig config_;
  std::vector<double> load_;  // bytes/s per directed link
};

}  // namespace maco::noc

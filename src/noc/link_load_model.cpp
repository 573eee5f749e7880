#include "noc/link_load_model.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace maco::noc {

LinkLoadModel::LinkLoadModel(const LinkLoadConfig& config)
    : config_(config), load_(config.width * config.height * 5, 0.0) {
  MACO_ASSERT(config.width > 0 && config.height > 0);
  MACO_ASSERT(config.link_bytes_per_second > 0);
}

void LinkLoadModel::add_flow(NodeId src, NodeId dst,
                             double bytes_per_second) {
  for_each_xy_link(config_.width, src, dst, [&](unsigned link) {
    load_[link] += bytes_per_second;
  });
}

void LinkLoadModel::clear() {
  std::fill(load_.begin(), load_.end(), 0.0);
}

double LinkLoadModel::max_utilization() const noexcept {
  const double peak = *std::max_element(load_.begin(), load_.end());
  return peak / config_.link_bytes_per_second;
}

double LinkLoadModel::path_utilization(NodeId src, NodeId dst) const noexcept {
  double peak = 0.0;
  for_each_xy_link(config_.width, src, dst, [&](unsigned link) {
    peak = std::max(peak, load_[link]);
  });
  return peak / config_.link_bytes_per_second;
}

}  // namespace maco::noc

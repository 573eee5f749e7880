#include "flit_mesh/router.hpp"

#include "util/assert.hpp"

namespace maco::noc {

Router::Router(NodeId id, unsigned x, unsigned y, const RouterConfig& config)
    : id_(id), x_(x), y_(y), vc_count_(config.vc_count),
      vc_depth_(config.vc_depth),
      queues_(kPortCount * config.vc_count),
      owners_(kPortCount * config.vc_count) {
  MACO_ASSERT(config.vc_count > 0 && config.vc_depth > 0);
}

Port Router::route(unsigned dst_x, unsigned dst_y) const noexcept {
  // Dimension order: X first, then Y (deadlock-free on a mesh).
  if (dst_x > x_) return Port::kEast;
  if (dst_x < x_) return Port::kWest;
  if (dst_y > y_) return Port::kSouth;
  if (dst_y < y_) return Port::kNorth;
  return Port::kLocal;
}

bool Router::has_buffer_space(Port in, unsigned vc) const noexcept {
  return queue(in, vc).flits.size() < vc_depth_;
}

void Router::accept_flit(Port in, unsigned vc, Flit flit) {
  MACO_ASSERT_MSG(has_buffer_space(in, vc),
                  "router " << id_ << " port " << static_cast<unsigned>(in)
                            << " vc " << vc << " overflow");
  queue(in, vc).flits.push_back(std::move(flit));
}

bool Router::any_flits() const noexcept {
  for (const auto& q : queues_) {
    if (!q.flits.empty()) return true;
  }
  return false;
}

}  // namespace maco::noc

#include "noc/icnt.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "noc/mesh_config.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace maco::noc {

std::string_view icnt_kind_name(IcntKind kind) noexcept {
  switch (kind) {
    case IcntKind::kAnalytic: return "analytic";
    case IcntKind::kFlit: return "flit";
  }
  return "?";
}

IcntKind parse_icnt_kind(std::string_view name) {
  if (name == "analytic") return IcntKind::kAnalytic;
  if (name == "flit") return IcntKind::kFlit;
  throw std::invalid_argument("unknown icnt backend '" + std::string(name) +
                              "' (want analytic|flit)");
}

IcntModel::IcntModel(const IcntConfig& config) : config_(config) {
  MACO_ASSERT(config.width > 0 && config.height > 0);
}

IcntModel::~IcntModel() = default;

void IcntModel::enable_link_stats() {
  link_stats_.assign(
      static_cast<std::size_t>(config_.width) * config_.height * 5,
      LinkTraffic{});
}

void IcntModel::record_link_traffic(unsigned link, std::uint64_t flits,
                                    sim::TimePs busy_ps) const {
  LinkTraffic& stat = link_stats_[link];
  stat.flits += flits;
  stat.busy_ps += busy_ps;
}

// ---------------- AnalyticIcnt ----------------

AnalyticIcnt::AnalyticIcnt(const IcntConfig& config)
    : IcntModel(config),
      nodes_(static_cast<std::size_t>(config.width) * config.height) {
  // The longest route, corner to corner, must fit a table entry.
  MACO_ASSERT(2 * (config.width + config.height - 1) <= UINT16_MAX);
  round_trip_cycles_.resize(nodes_ * nodes_);
  for (std::size_t node = 0; node < nodes_; ++node) {
    for (std::size_t home = 0; home < nodes_; ++home) {
      const unsigned hops =
          xy_hop_count(config.width, static_cast<unsigned>(node),
                       static_cast<unsigned>(home));
      round_trip_cycles_[node * nodes_ + home] =
          static_cast<std::uint16_t>(2 * (hops + 1));
    }
  }
}

sim::TimePs AnalyticIcnt::unloaded_round_trip_ps(
    int node, unsigned home, std::uint32_t /*bytes*/) const {
  return round_trip_ps(node, home);
}

void AnalyticIcnt::record_route(int node, unsigned home,
                                std::uint32_t bytes) const {
  const auto src = static_cast<unsigned>(node);
  const auto payload_flits = static_cast<std::uint64_t>(
      util::ceil_div(bytes + config_.header_bytes, config_.flit_bytes));
  for_each_xy_link(config_.width, src, home, [&](unsigned link) {
    record_link_traffic(link, 1, config_.cycle_ps);
  });
  for_each_xy_link(config_.width, home, src, [&](unsigned link) {
    record_link_traffic(link, payload_flits, config_.cycle_ps);
  });
}

// ---------------- FlitIcnt ----------------

FlitIcnt::FlitIcnt(const IcntConfig& config)
    : IcntModel(config),
      link_free_(static_cast<std::size_t>(config.width) * config.height * 5,
                 0) {
  MACO_ASSERT(config.flit_bytes > 0 && config.cycle_ps > 0);
}

unsigned FlitIcnt::flits_for(std::uint32_t payload_bytes) const noexcept {
  return static_cast<unsigned>(util::ceil_div(
      payload_bytes + config_.header_bytes, config_.flit_bytes));
}

sim::TimePs FlitIcnt::traverse(sim::TimePs start, unsigned src, unsigned dst,
                               unsigned flits,
                               std::vector<sim::TimePs>* link_free) const {
  // Wormhole pipeline: the head flit advances one link per cycle, the body
  // streams behind it; each link stays occupied for the packet's full flit
  // count, so a contending packet waits for the tail to pass.
  sim::TimePs head = start;
  for_each_xy_link(config_.width, src, dst, [&](unsigned link) {
    sim::TimePs enter = head;
    if (link_free != nullptr) {
      enter = std::max(enter, (*link_free)[link]);
      (*link_free)[link] =
          enter + static_cast<sim::TimePs>(flits) * config_.cycle_ps;
      if (link_stats_enabled()) {
        record_link_traffic(
            link, flits, static_cast<sim::TimePs>(flits) * config_.cycle_ps);
      }
    }
    head = enter + config_.cycle_ps;
  });
  return head + static_cast<sim::TimePs>(flits - 1) * config_.cycle_ps;
}

sim::TimePs FlitIcnt::unloaded_round_trip_ps(int node, unsigned home,
                                             std::uint32_t bytes) const {
  const auto src = static_cast<unsigned>(node);
  const sim::TimePs arrive = traverse(0, src, home, 1, nullptr);
  return traverse(arrive, home, src, flits_for(bytes), nullptr);
}

sim::TimePs FlitIcnt::busy_horizon_ps() const noexcept {
  return *std::max_element(link_free_.begin(), link_free_.end());
}

sim::TimePs FlitIcnt::request_leg_ps(sim::TimePs now, int node,
                                     unsigned home) {
  ++transfers_;
  // Header-only request packet.
  return traverse(now, static_cast<unsigned>(node), home, 1, &link_free_) -
         now;
}

sim::TimePs FlitIcnt::response_leg_ps(sim::TimePs now, unsigned home,
                                      int node, std::uint32_t bytes) {
  // Payload wormhole back to the requester.
  return traverse(now, home, static_cast<unsigned>(node), flits_for(bytes),
                  &link_free_) -
         now;
}

std::unique_ptr<IcntModel> make_icnt_model(const IcntConfig& config) {
  switch (config.kind) {
    case IcntKind::kAnalytic:
      return std::make_unique<AnalyticIcnt>(config);
    case IcntKind::kFlit:
      return std::make_unique<FlitIcnt>(config);
  }
  throw std::invalid_argument("unknown icnt backend kind");
}

}  // namespace maco::noc

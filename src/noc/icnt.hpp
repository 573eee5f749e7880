// Interconnect backend models behind one interface.
//
// The `icnt` hardware knob selects how the detailed machine charges
// NoC time per cache-line transfer: `analytic` is the original closed-form
// X-Y hop formula (behavior-preserving default), `flit` a wormhole-style
// model that walks the X-Y route and books occupancy on every directed
// link it traverses, so concurrent transfers contend for links the way
// they do in the test tree's flit-level reference mesh
// (tests/flit_mesh/). The analytic-fidelity sweep path keeps using
// LinkLoadModel; this trait covers the detailed and sampled machines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace maco::noc {

// Selectable interconnect timing backend (the `icnt` hardware knob).
enum class IcntKind : std::uint8_t {
  kAnalytic,  // unloaded X-Y hop formula
  kFlit,      // flit-serialized transfers with per-link occupancy booking
};

std::string_view icnt_kind_name(IcntKind kind) noexcept;
// Throws std::invalid_argument naming the valid choices.
IcntKind parse_icnt_kind(std::string_view name);

struct IcntConfig {
  IcntKind kind = IcntKind::kAnalytic;
  unsigned width = 4;
  unsigned height = 4;
  unsigned flit_bytes = 32;    // flit: link width (256-bit)
  unsigned header_bytes = 8;   // flit: head-flit routing/command header
  sim::TimePs cycle_ps = 500;  // link clock (2 GHz); analytic: one per hop
};

class IcntModel {
 public:
  explicit IcntModel(const IcntConfig& config);
  virtual ~IcntModel();

  IcntModel(const IcntModel&) = delete;
  IcntModel& operator=(const IcntModel&) = delete;

  // One line transfer is two legs: the request travels node -> home, the
  // home slice services it, then `bytes` of payload travel home -> node.
  //
  // Arrival-time servicing rule: the caller charges the home-slice work
  // (L3 / DRAM) BETWEEN the legs, passing the request's ARRIVAL time
  // (now + request leg) to DramModel::access — never the issue time — so
  // a queueing backend cannot double-bill backlog the network wait
  // already covered. See DramModel::access for the mirror-image contract.
  //
  // Each leg returns the added latency (not an absolute time); loaded
  // models book link occupancy, so concurrent transfers contend.
  virtual sim::TimePs request_leg_ps(sim::TimePs now, int node,
                                     unsigned home) = 0;
  virtual sim::TimePs response_leg_ps(sim::TimePs now, unsigned home,
                                      int node, std::uint32_t bytes) = 0;

  // Contention-free round trip — for callers with no notion of current
  // time (e.g. the page-table walker's PTE reads).
  virtual sim::TimePs unloaded_round_trip_ps(int node, unsigned home,
                                             std::uint32_t bytes) const = 0;

  const IcntConfig& config() const noexcept { return config_; }

  // ---- optional per-link traffic accounting (profile=counters) ----
  //
  // Off by default so the hot transfer path pays nothing; when enabled,
  // every loaded leg adds its flit count and occupancy time to each
  // directed link it crosses (link index = node*5 + direction, ejection
  // first — the LinkLoadModel link set). Accounting only: recorded
  // traffic never feeds back into the latencies the legs return.
  struct LinkTraffic {
    std::uint64_t flits = 0;
    sim::TimePs busy_ps = 0;
  };
  void enable_link_stats();
  bool link_stats_enabled() const noexcept { return !link_stats_.empty(); }
  const std::vector<LinkTraffic>& link_stats() const noexcept {
    return link_stats_;
  }

 protected:
  void record_link_traffic(unsigned link, std::uint64_t flits,
                           sim::TimePs busy_ps) const;

  IcntConfig config_;
  // mutable: legs that book occupancy are the recording sites, and the
  // shared traversal helper is const for the unloaded-estimate path.
  mutable std::vector<LinkTraffic> link_stats_;
};

// `icnt=analytic`: two X-Y traversals at one hop per cycle plus an
// injection/ejection cycle each way — exactly the closed form the detailed
// machine always used; payload size and load are invisible. The request
// leg reports zero and the response leg the full round trip, preserving
// the historic behavior of consulting the home slice at injection time.
// Every line transfer asks for a round trip, so the construction tabulates
// them, 2 (xy_hop_count + 1) cycles for each (node, home) pair of the mesh.
class AnalyticIcnt final : public IcntModel {
 public:
  explicit AnalyticIcnt(const IcntConfig& config);

  // Zero so the home slice is consulted at injection time — exactly what
  // the pre-trait closed form did; the response leg carries the whole
  // round trip.
  sim::TimePs request_leg_ps(sim::TimePs /*now*/, int /*node*/,
                             unsigned /*home*/) override {
    return 0;
  }
  sim::TimePs response_leg_ps(sim::TimePs /*now*/, unsigned home, int node,
                              std::uint32_t bytes) override {
    if (link_stats_enabled()) record_route(node, home, bytes);
    return round_trip_ps(node, home);
  }
  sim::TimePs unloaded_round_trip_ps(int node, unsigned home,
                                     std::uint32_t bytes) const override;

 private:
  // The closed form has no per-link booking, so a transfer's route is
  // accounted here: a header-flit request out, the payload wormhole back,
  // each link charged one hop time.
  void record_route(int node, unsigned home, std::uint32_t bytes) const;
  sim::TimePs round_trip_ps(int node, unsigned home) const noexcept {
    return static_cast<sim::TimePs>(
               round_trip_cycles_[static_cast<std::size_t>(node) * nodes_ +
                                  home]) *
           config_.cycle_ps;
  }

  std::size_t nodes_;
  std::vector<std::uint16_t> round_trip_cycles_;  // row-major by node
};

// `icnt=flit`: the request rides a head flit to the home slice and the
// payload streams back as a wormhole of data flits; every directed link on
// the X-Y route (including final ejection, mirroring LinkLoadModel's link
// set) is booked for the packet's full flit count, so overlapping
// transfers queue behind each other link by link.
class FlitIcnt final : public IcntModel {
 public:
  explicit FlitIcnt(const IcntConfig& config);

  sim::TimePs request_leg_ps(sim::TimePs now, int node,
                             unsigned home) override;
  sim::TimePs response_leg_ps(sim::TimePs now, unsigned home, int node,
                              std::uint32_t bytes) override;
  sim::TimePs unloaded_round_trip_ps(int node, unsigned home,
                                     std::uint32_t bytes) const override;

  // Flits in a packet of `payload_bytes` (header included), as the
  // reference mesh's MeshNetwork::flits_for counts them.
  unsigned flits_for(std::uint32_t payload_bytes) const noexcept;

  // Loaded round trips charged so far, and the furthest-out link booking
  // (the network's busy horizon) — contention observability for tests.
  std::uint64_t transfers() const noexcept { return transfers_; }
  sim::TimePs busy_horizon_ps() const noexcept;

 private:
  // One wormhole traversal src -> dst of `flits` flits starting at
  // `start`; books link occupancy when `link_free` is non-null. Returns
  // the tail flit's ejection time.
  sim::TimePs traverse(sim::TimePs start, unsigned src, unsigned dst,
                       unsigned flits,
                       std::vector<sim::TimePs>* link_free) const;

  // Directed link index: 5 per node (ejection + 4 mesh directions),
  // matching LinkLoadModel's link set.
  std::vector<sim::TimePs> link_free_;
  std::uint64_t transfers_ = 0;
};

// Builds the backend `config.kind` selects.
std::unique_ptr<IcntModel> make_icnt_model(const IcntConfig& config);

}  // namespace maco::noc

// Observability data captured from one detailed-machine run.
//
// A RunObservation is the neutral hand-off between the layers that RECORD
// (core/detailed_runner, serve's detailed cost oracle) and the layers that
// RENDER (obs::add_counter_metrics into ScenarioResult metrics,
// obs::to_perfetto_json into a trace file). It is plain data on purpose:
// counters are a dotted-name -> u64 map so same-seed runs dump
// bit-identically, spans carry raw engine timestamps, and the NoC section
// mirrors noc::IcntModel's directed-link layout (link = node*5 + dir).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace maco::obs {

// One closed interval of work on a named track ("node3.mmae",
// "instance0", "tenant2"). Timestamps are engine picoseconds.
struct SpanRec {
  std::string track;
  std::string name;
  sim::TimePs start = 0;
  sim::TimePs end = 0;
};

// Directed-link order within a node, matching noc/icnt.cpp's routing
// enum: link index = node*5 + dir.
inline constexpr const char* kLinkDirNames[5] = {"eject", "north", "south",
                                                 "east", "west"};
inline constexpr unsigned kLinksPerNode = 5;

struct LinkTrafficRec {
  std::uint64_t flits = 0;     // payload+header flit equivalents
  sim::TimePs busy_ps = 0;     // total time the link carried them
};

// Per-link NoC traffic over an observation window (the run's makespan).
struct NocTraffic {
  unsigned width = 0;
  unsigned height = 0;
  sim::TimePs window_ps = 0;
  std::vector<LinkTrafficRec> links;  // size width*height*kLinksPerNode

  bool present() const noexcept { return !links.empty(); }
};

struct RunObservation {
  bool want_counters = false;  // collect component counters + NoC traffic
  bool want_trace = false;     // collect spans

  std::map<std::string, std::uint64_t> counters;
  std::vector<SpanRec> spans;
  NocTraffic noc;

  // Accumulates `other` into this observation: counters and link traffic
  // sum, spans append shifted by `span_offset_ps`, windows add. Used when
  // one sweep point runs several machines (the serve oracle's
  // per-batch-size measurements).
  void merge(const RunObservation& other, sim::TimePs span_offset_ps);
};

}  // namespace maco::obs

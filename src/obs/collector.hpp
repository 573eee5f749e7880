// obs::Collector — rolls component counters up into RunObservations and
// typed ScenarioResult metrics.
//
// Components count unconditionally (a cache always knows its hit count);
// what profile=counters adds is the COLLECTION step after a run: collect
// walks the machine and writes every counter into a RunObservation under
// hierarchical dotted names ("node3.vm.stlb.hits", "dram0.row_conflicts",
// "noc.link17.flits"), plus per-link NoC traffic. add_counter_metrics then
// derives the headline rates (l3_hit_rate, dram_row_hit_rate,
// noc_max_link_util, ...) that flow through CSV/JSON, the campaign store
// and `report --compare`. Everything here runs after the engine has
// quiesced, so it cannot perturb timing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/observation.hpp"

namespace maco::core {
class MacoSystem;
}
namespace maco::exp {
struct ScenarioResult;
}

namespace maco::obs {

// Adds every component counter of `system` to `out.counters` (dotted
// names, see docs/OBSERVABILITY.md for the catalogue; summing, so several
// machines can fold into one observation) and, when link stats are
// enabled, its per-link NoC traffic to `out.noc` with the engine's current
// time as the window.
void collect(core::MacoSystem& system, RunObservation& out);

// Appends node `node`'s MMAE task reports to `spans` on track
// "node<N>.mmae", one span per task named by its mnemonic, or
// "fault:<type>" for a task the MMAE aborted.
void append_mmae_spans(core::MacoSystem& system, unsigned node,
                       std::vector<SpanRec>& spans);

// Derived headline metrics from a collected observation. Rates are only
// emitted when their denominator is non-zero, so a run that never touched
// a component does not report a fake 0% rate.
void add_counter_metrics(exp::ScenarioResult& result,
                         const RunObservation& observation);

// Sum of every counter whose dotted name starts with `prefix` AND ends
// with `suffix` (either may be empty). Exposed for tests.
std::uint64_t sum_counters(
    const std::map<std::string, std::uint64_t>& counters,
    std::string_view prefix, std::string_view suffix);

}  // namespace maco::obs

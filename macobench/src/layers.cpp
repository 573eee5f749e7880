#include <algorithm>
#include <cmath>
#include <string_view>

#include "bench.hpp"
#include "obs/collector.hpp"

namespace macobench {
namespace {

const char* const kLayerMetrics[] = {
    "graph.parse_s",
    "graph.lower_s",
    "graph.layer_evals",
    "timing_model.run_s",
    "timing_model.calls",
    "timing_model.repeat_frac",
    "timing_model.call_ms_p50",
    "timing_model.call_ms_p99",
    "machine.construct_s",
    "machine.operand_setup_s",
    "machine.operand_bytes",
    "machine.readback_s",
    "os.run_all_s",
    "os.context_switches",
    "os.scheduling_rounds",
    "engine.events",
    "engine.clock_edges",
    "engine.host_ns_per_event",
    "mem.l3_accesses",
    "mem.l3_hit_rate",
    "mem.dram_bytes",
    "mem.dram_busy_frac",
    "vm.stlb_hit_rate",
    "vm.matlb_hit_rate",
    "vm.walks",
    "noc.max_link_util",
    "mmae.node_concurrency",
    "mmae.sa_busy_frac",
    "mmae.translation_stall_frac",
    "sampling.run_s",
    "sampling.sampled_tiles",
    "sampling.total_tiles",
    "sampling.strata",
    "sampling.host_ms_per_tile",
    "serve.schedule_s",
    "serve.oracle_s",
    "serve.oracle_calls",
    "serve.oracle_distinct",
    "serve.loop_s",
    "serve.host_ns_per_request",
};

double sum(const obs::RunObservation& observation, std::string_view prefix,
           std::string_view suffix) {
  return static_cast<double>(
      obs::sum_counters(observation.counters, prefix, suffix));
}

double hit_rate(double hits, double misses) {
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

}  // namespace

std::map<std::string, double> empty_layers() {
  std::map<std::string, double> layers;
  for (const char* name : kLayerMetrics) layers[name] = 0.0;
  return layers;
}

void add_counter_layers(const obs::RunObservation& observation,
                        std::map<std::string, double>& layers) {
  const double l3_hits = sum(observation, "ccm", ".l3.hits");
  const double l3_misses = sum(observation, "ccm", ".l3.misses");
  layers["mem.l3_accesses"] = l3_hits + l3_misses;
  layers["mem.l3_hit_rate"] = hit_rate(l3_hits, l3_misses);
  layers["mem.dram_bytes"] = sum(observation, "dram", ".bytes");

  // Channel-time busy share over the observation window (the summed
  // makespans of every machine folded into `observation`).
  double channels = 0.0;
  for (const auto& entry : observation.counters) {
    const std::string_view name = entry.first;
    if (name.starts_with("dram") && name.ends_with(".busy_ps")) {
      channels += 1.0;
    }
  }
  const double window = static_cast<double>(observation.noc.window_ps);
  layers["mem.dram_busy_frac"] =
      channels > 0.0 && window > 0.0
          ? sum(observation, "dram", ".busy_ps") / (channels * window)
          : 0.0;

  layers["vm.stlb_hit_rate"] =
      hit_rate(sum(observation, "node", ".vm.stlb.hits"),
               sum(observation, "node", ".vm.stlb.misses"));
  layers["vm.matlb_hit_rate"] =
      hit_rate(sum(observation, "node", ".mmae.matlb.hits"),
               sum(observation, "node", ".mmae.matlb.misses"));
  layers["vm.walks"] = sum(observation, "node", ".vm.walker.walks");

  double max_util = 0.0;
  if (window > 0.0) {
    for (const obs::LinkTrafficRec& link : observation.noc.links) {
      max_util =
          std::max(max_util, static_cast<double>(link.busy_ps) / window);
    }
  }
  layers["noc.max_link_util"] = max_util;
  layers["engine.events"] = sum(observation, "engine.events", "");
  layers["engine.clock_edges"] = sum(observation, "engine.clock_edges", "");
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

}  // namespace macobench

#include "obs/collector.hpp"

#include <algorithm>
#include <vector>

#include "core/compute_node.hpp"
#include "core/maco_system.hpp"
#include "cpu/core.hpp"
#include "cpu/mmu.hpp"
#include "cpu/mtq.hpp"
#include "exp/results.hpp"
#include "isa/encoding.hpp"
#include "mem/ccm.hpp"
#include "mem/dram.hpp"
#include "mem/queued_dram.hpp"
#include "mmae/accelerator_controller.hpp"
#include "noc/icnt.hpp"
#include "sim/engine.hpp"
#include "vm/matlb.hpp"
#include "vm/tlb.hpp"
#include "vm/walker.hpp"

namespace maco::obs {

void collect(core::MacoSystem& system, RunObservation& out) {
  std::map<std::string, std::uint64_t>& counters = out.counters;

  for (unsigned n = 0; n < system.node_count(); ++n) {
    core::ComputeNode& node = system.node(n);
    const std::string base = "node" + std::to_string(n);
    cpu::CpuCore& core = node.cpu();
    counters[base + ".cpu.mtq.enqueues"] += core.mtq().allocations();
    counters[base + ".cpu.mtq.backoffs"] += core.mtq().allocation_failures();
    const vm::Tlb& stlb = core.mmu().shared_tlb();
    counters[base + ".vm.stlb.hits"] += stlb.hits();
    counters[base + ".vm.stlb.misses"] += stlb.misses();
    counters[base + ".vm.stlb.evictions"] += stlb.evictions();
    const vm::PageTableWalker& walker = core.mmu().walker();
    counters[base + ".vm.walker.walks"] += walker.walks();
    counters[base + ".vm.walker.pte_reads"] += walker.pte_reads();
    counters[base + ".vm.walker.walk_cache_hits"] += walker.walk_cache_hits();
    const vm::Matlb& matlb = node.mmae().matlb();
    counters[base + ".mmae.matlb.hits"] += matlb.hits();
    counters[base + ".mmae.matlb.misses"] += matlb.misses();
    counters[base + ".mmae.matlb.retired"] += matlb.retired();
    counters[base + ".mmae.matlb.late_predictions"] +=
        matlb.late_predictions();
  }

  for (unsigned s = 0; s < system.ccm_slice_count(); ++s) {
    const mem::Ccm& ccm = system.ccm_slice(s);
    const std::string base = "ccm" + std::to_string(s);
    counters[base + ".l3.hits"] += ccm.l3_hits();
    counters[base + ".l3.misses"] += ccm.l3_misses();
    counters[base + ".l3.evictions"] += ccm.l3_evictions();
    counters[base + ".l3.writebacks"] += ccm.l3_writebacks();
    counters[base + ".stash_hits"] += ccm.stash_hits();
    counters[base + ".stash_fills"] += ccm.stash_fills();
  }

  for (unsigned d = 0; d < system.dram_channel_count(); ++d) {
    const mem::DramModel& dram = system.dram_channel(d);
    const std::string base = "dram" + std::to_string(d);
    counters[base + ".requests"] += dram.requests();
    counters[base + ".bytes"] += dram.bytes_transferred();
    counters[base + ".busy_ps"] += dram.busy_ps();
    if (const auto* queued =
            dynamic_cast<const mem::QueuedDramController*>(&dram)) {
      counters[base + ".row_hits"] += queued->row_hits();
      counters[base + ".row_misses"] += queued->row_misses();
      counters[base + ".row_conflicts"] += queued->row_conflicts();
    }
  }

  counters["engine.events"] += system.engine().events_executed();

  const noc::IcntModel& icnt = system.icnt();
  if (const auto* flit = dynamic_cast<const noc::FlitIcnt*>(&icnt)) {
    counters["noc.icnt.transfers"] += flit->transfers();
  }
  if (icnt.link_stats_enabled()) {
    const auto& links = icnt.link_stats();
    RunObservation traffic;
    traffic.noc.width = icnt.config().width;
    traffic.noc.height = icnt.config().height;
    traffic.noc.window_ps = system.engine().now();
    traffic.noc.links.reserve(links.size());
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (links[i].flits != 0) {
        const std::string base = "noc.link" + std::to_string(i);
        counters[base + ".flits"] += links[i].flits;
        counters[base + ".busy_ps"] +=
            static_cast<std::uint64_t>(links[i].busy_ps);
      }
      traffic.noc.links.push_back(
          LinkTrafficRec{links[i].flits, links[i].busy_ps});
    }
    out.merge(traffic, 0);
  }
}

void append_mmae_spans(core::MacoSystem& system, unsigned node,
                       std::vector<SpanRec>& spans) {
  const std::string track = "node" + std::to_string(node) + ".mmae";
  for (const mmae::TaskReport& report :
       system.node(node).mmae().reports()) {
    spans.push_back(SpanRec{
        track,
        report.exception == cpu::ExceptionType::kNone
            ? std::string(isa::mnemonic_name(report.op))
            : std::string("fault:") +
                  cpu::exception_type_name(report.exception),
        report.start, report.end});
  }
}

std::uint64_t sum_counters(
    const std::map<std::string, std::uint64_t>& counters,
    std::string_view prefix, std::string_view suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : counters) {
    const std::string_view view = name;
    if (view.size() < prefix.size() + suffix.size()) continue;
    if (view.substr(0, prefix.size()) != prefix) continue;
    if (view.substr(view.size() - suffix.size()) != suffix) continue;
    total += value;
  }
  return total;
}

namespace {

// hits / (hits + misses); emitted only when the component saw traffic.
void add_hit_rate(exp::ScenarioResult& result, const RunObservation& obs,
                  const std::string& metric, std::string_view prefix,
                  std::string_view hit_suffix, std::string_view miss_suffix) {
  const std::uint64_t hits = sum_counters(obs.counters, prefix, hit_suffix);
  const std::uint64_t misses = sum_counters(obs.counters, prefix, miss_suffix);
  if (hits + misses == 0) return;
  result.add(metric, static_cast<double>(hits) /
                         static_cast<double>(hits + misses),
             "", true);
}

}  // namespace

void add_counter_metrics(exp::ScenarioResult& result,
                         const RunObservation& obs) {
  add_hit_rate(result, obs, "l3_hit_rate", "ccm", ".l3.hits", ".l3.misses");
  add_hit_rate(result, obs, "stlb_hit_rate", "node", ".vm.stlb.hits",
               ".vm.stlb.misses");
  add_hit_rate(result, obs, "matlb_hit_rate", "node", ".mmae.matlb.hits",
               ".mmae.matlb.misses");

  const std::uint64_t walks =
      sum_counters(obs.counters, "node", ".vm.walker.walks");
  if (walks != 0) {
    result.add("tlb_walks", static_cast<double>(walks), "", false);
  }

  const std::uint64_t row_hits =
      sum_counters(obs.counters, "dram", ".row_hits");
  const std::uint64_t row_misses =
      sum_counters(obs.counters, "dram", ".row_misses");
  const std::uint64_t row_conflicts =
      sum_counters(obs.counters, "dram", ".row_conflicts");
  if (row_hits + row_misses + row_conflicts != 0) {
    result.add("dram_row_hit_rate",
               static_cast<double>(row_hits) /
                   static_cast<double>(row_hits + row_misses + row_conflicts),
               "", true);
  }
  const std::uint64_t dram_bytes =
      sum_counters(obs.counters, "dram", ".bytes");
  if (dram_bytes != 0) {
    result.add("dram_bytes", static_cast<double>(dram_bytes), "B", false);
  }

  if (obs.noc.present() && obs.noc.window_ps > 0) {
    std::vector<double> utils;
    utils.reserve(obs.noc.links.size());
    for (const LinkTrafficRec& link : obs.noc.links) {
      utils.push_back(static_cast<double>(link.busy_ps) /
                      static_cast<double>(obs.noc.window_ps));
    }
    std::sort(utils.begin(), utils.end());
    result.add("noc_max_link_util", utils.back(), "", false);
    const std::size_t p95_index = std::min(
        utils.size() - 1, static_cast<std::size_t>(
                              0.95 * static_cast<double>(utils.size())));
    result.add("noc_p95_link_util", utils[p95_index], "", false);
  }
}

}  // namespace maco::obs

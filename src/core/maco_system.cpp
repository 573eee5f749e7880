#include "core/maco_system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace maco::core {

// ---------------- SystemMemoryBackend ----------------

sim::TimePs SystemMemoryBackend::transfer(int node, vm::PhysAddr pa,
                                          std::uint32_t bytes,
                                          mem::CcmReqType type, bool lock,
                                          sim::TimePs start) {
  // Serialize on the node's injection port at link bandwidth.
  sim::TimePs& port_free = system_.node_port_free_.at(node);
  const sim::TimePs t = std::max(start, port_free);
  const double bw = system_.config_.node_link_bandwidth();
  const auto wire_ps = static_cast<sim::TimePs>(
      static_cast<double>(bytes) / bw * 1e12);
  if (type == mem::CcmReqType::kStash && lock) {
    type = mem::CcmReqType::kStashLock;
  }

  // Line-granular CCM transactions; the slowest line bounds completion
  // (lines pipeline through the network back to back). Consecutive lines
  // live in consecutive slices, so only the first line's home is divided
  // out.
  mem::Ccm* const slices = system_.ccms_.data();
  const auto slice_count = static_cast<unsigned>(system_.ccms_.size());
  const std::uint64_t first = mem::line_addr(pa);
  const std::uint64_t last = mem::line_addr(pa + bytes - 1);
  const auto charge_lines = [&](auto& icnt) {
    sim::TimePs ready = t;
    unsigned home = system_.ccm_home_node(first);
    for (std::uint64_t line = first; line <= last; line += mem::kLineBytes) {
      // Stores covering a whole line stream without a fetch (the DMA
      // writes every byte, so read-for-ownership data would be thrown
      // away).
      const mem::CcmReqType line_type =
          type == mem::CcmReqType::kGetM && line >= pa &&
                  line + mem::kLineBytes <= pa + bytes
              ? mem::CcmReqType::kPutFull
              : type;
      // Two-leg protocol: the home slice services the request at its
      // ARRIVAL time, so a queueing interconnect and a queueing DRAM each
      // charge their own backlog exactly once (handing the slice the
      // injection time would bill the network wait again as memory wait).
      const sim::TimePs req_arrive = t + icnt.request_leg_ps(t, node, home);
      const sim::TimePs data_ready =
          req_arrive + slices[home].handle(line_type, line, req_arrive);
      const sim::TimePs line_ready =
          data_ready +
          icnt.response_leg_ps(data_ready, home, node, mem::kLineBytes);
      ready = std::max(ready, line_ready);
      if (++home == slice_count) home = 0;
    }
    return ready;
  };
  // On the analytic interconnect the legs inline into the loop.
  const sim::TimePs ready = system_.analytic_icnt_
                                ? charge_lines(*system_.analytic_icnt_)
                                : charge_lines(*system_.icnt_);
  port_free = t + wire_ps;
  return std::max(ready, port_free);
}

bool SystemMemoryBackend::carries_values() const {
  return system_.config().carry_values;
}

sim::TimePs SystemMemoryBackend::read(int node, vm::PhysAddr pa, void* out,
                                      std::uint32_t bytes, sim::TimePs start) {
  if (carries_values()) system_.memory().read(pa, out, bytes);
  return transfer(node, pa, bytes, mem::CcmReqType::kGetS, false, start);
}

sim::TimePs SystemMemoryBackend::write(int node, vm::PhysAddr pa,
                                       const void* data, std::uint32_t bytes,
                                       sim::TimePs start) {
  if (carries_values()) system_.memory().write(pa, data, bytes);
  return transfer(node, pa, bytes, mem::CcmReqType::kGetM, false, start);
}

sim::TimePs SystemMemoryBackend::stash(int node, vm::PhysAddr pa,
                                       std::uint32_t bytes, bool lock,
                                       sim::TimePs start) {
  return transfer(node, pa, bytes, mem::CcmReqType::kStash, lock, start);
}

// ---------------- WalkMemoryOracle ----------------

sim::TimePs WalkMemoryOracle::read_latency(vm::PhysAddr addr,
                                           std::uint32_t /*bytes*/) {
  const unsigned home = system_.ccm_home_node(addr);
  // The walker has no notion of current time, so the PTE read must not
  // book the shared DRAM bus or NoC links (a stale timestamp would surface
  // the backlog as walk latency); it still updates L3 state, so page-table
  // locality emerges across walks.
  return system_.icnt().unloaded_round_trip_ps(node_, home,
                                               mem::kLineBytes) +
         system_.ccms_[home].handle(mem::CcmReqType::kGetS, addr, 0,
                                    /*queue_dram=*/false);
}

// ---------------- MacoSystem ----------------

MacoSystem::MacoSystem(const SystemConfig& config)
    : config_(config),
      l3_("l3", mem::l3_store_config(config.ccm, config.ccm_count)) {
  // The interconnect tabulates routes between mesh positions only.
  const unsigned mesh_nodes = config_.mesh.width * config_.mesh.height;
  MACO_ASSERT_MSG(
      config_.node_count <= mesh_nodes && config_.ccm_count <= mesh_nodes,
      config_.node_count << " nodes and " << config_.ccm_count
                         << " L3 slices on a " << mesh_nodes
                         << "-position mesh");
  backend_ = std::make_unique<SystemMemoryBackend>(*this);

  drams_.reserve(config_.dram_channels);
  for (unsigned ch = 0; ch < config_.dram_channels; ++ch) {
    drams_.push_back(mem::make_dram_model("dram" + std::to_string(ch),
                                          config_.dram));
  }

  ccms_.reserve(config_.ccm_count);
  for (unsigned s = 0; s < config_.ccm_count; ++s) {
    // Channel interleaving: slice s drains to channel s % channels.
    ccms_.emplace_back(config_.ccm, l3_, *drams_[s % config_.dram_channels]);
  }

  icnt_ = noc::make_icnt_model(config_.icnt_config());
  analytic_icnt_ = dynamic_cast<noc::AnalyticIcnt*>(icnt_.get());
  // Per-link traffic accounting is the one observability hook that must
  // record during the run; it never feeds back into timing.
  if (config_.profile == ProfileMode::kCounters) icnt_->enable_link_stats();

  // Multi-process translation: the MMAEs resolve page tables through the
  // system's process registry, independent of the CPU's current context
  // (MTQ/STQ survive process switches).
  const mmae::PageTableLookup page_tables =
      [this](vm::Asid asid) -> const vm::PageTable* {
    const auto it = processes_.find(asid);
    return it == processes_.end() ? nullptr
                                  : &it->second->space->page_table();
  };
  node_port_free_.assign(config_.node_count, 0);
  nodes_.reserve(config_.node_count);
  walk_oracles_.reserve(config_.node_count);
  for (unsigned n = 0; n < config_.node_count; ++n) {
    walk_oracles_.push_back(
        std::make_unique<WalkMemoryOracle>(*this, static_cast<int>(n)));
    nodes_.push_back(std::make_unique<ComputeNode>(
        engine_, static_cast<int>(n), config_.cpu, config_.mmae, *backend_,
        *walk_oracles_.back(), page_tables));
  }
}

MacoSystem::~MacoSystem() = default;

ComputeNode& MacoSystem::node(unsigned index) {
  MACO_ASSERT_MSG(index < nodes_.size(), "node " << index);
  return *nodes_[index];
}

Process& MacoSystem::create_process() {
  const vm::Asid asid = next_asid_++;
  auto process = std::make_unique<Process>();
  process->asid = asid;
  // Carve disjoint physical regions per process: page tables low, frames
  // high; the sparse backing store only materializes touched pages.
  const vm::PhysAddr pt_base =
      0x0800'0000'0000ull +
      static_cast<vm::PhysAddr>(asid) * 0x0001'0000'0000ull;
  const vm::PhysAddr frame_base =
      0x1000'0000'0000ull +
      static_cast<vm::PhysAddr>(asid) * 0x0040'0000'0000ull;
  process->space =
      std::make_unique<vm::AddressSpace>(asid, pt_base, frame_base);
  auto [it, inserted] = processes_.emplace(asid, std::move(process));
  MACO_ASSERT(inserted);
  return *it->second;
}

void MacoSystem::schedule_process(unsigned node_index, Process& process) {
  node(node_index).cpu().set_context(process.asid);
}

vm::MatrixDesc MacoSystem::alloc_matrix(Process& process, std::uint64_t rows,
                                        std::uint64_t cols) {
  vm::MatrixDesc desc;
  desc.rows = rows;
  desc.cols = cols;
  desc.elem_bytes = sizeof(double);
  desc.base = process.space->alloc(rows * cols * sizeof(double));
  return desc;
}

void MacoSystem::require_values(const char* caller) const {
  if (!config_.carry_values) {
    throw std::logic_error(
        std::string("MacoSystem::") + caller +
        ": the machine was built with SystemConfig::carry_values = false "
        "and holds no operand values");
  }
}

namespace {

// A run of an FP64 matrix row that one page holds.
struct PageRun {
  vm::PhysAddr pa = 0;
  std::uint64_t row = 0;
  std::uint64_t offset = 0;  // bytes into the row
  std::uint64_t bytes = 0;
};

// Calls copy(run) for each page-bounded run of every row of `desc`; each
// run is translated once, and must be mapped.
template <typename Copy>
void for_each_page_run(const vm::PageTable& table, const vm::MatrixDesc& desc,
                       const char* caller, Copy&& copy) {
  MACO_ASSERT_MSG(desc.elem_bytes == sizeof(double),
                  caller << ": host matrices are FP64");
  const std::uint64_t row_bytes = desc.cols * sizeof(double);
  for (std::uint64_t r = 0; r < desc.rows; ++r) {
    const vm::VirtAddr row = desc.element_addr(r, 0);
    for (std::uint64_t offset = 0; offset < row_bytes;) {
      const vm::VirtAddr va = row + offset;
      const std::uint64_t bytes =
          std::min(row_bytes - offset, vm::kPageSize - vm::page_offset(va));
      const auto pa = table.translate(va);
      MACO_ASSERT_MSG(pa.has_value(), "unmapped VA in " << caller);
      copy(PageRun{*pa, r, offset, bytes});
      offset += bytes;
    }
  }
}

}  // namespace

void MacoSystem::write_matrix(Process& process, const vm::MatrixDesc& desc,
                              const sa::HostMatrix& values) {
  require_values("write_matrix");
  MACO_ASSERT(values.rows() == desc.rows && values.cols() == desc.cols);
  const vm::PageTable& table = process.space->page_table();
  for_each_page_run(table, desc, "write_matrix", [&](const PageRun& run) {
    const auto* row =
        reinterpret_cast<const std::uint8_t*>(values.row_ptr(run.row));
    memory_.write(run.pa, row + run.offset, run.bytes);
  });
}

sa::HostMatrix MacoSystem::read_matrix(Process& process,
                                       const vm::MatrixDesc& desc) {
  require_values("read_matrix");
  sa::HostMatrix out(desc.rows, desc.cols);
  const vm::PageTable& table = process.space->page_table();
  for_each_page_run(table, desc, "read_matrix", [&](const PageRun& run) {
    auto* row = reinterpret_cast<std::uint8_t*>(out.row_ptr(run.row));
    memory_.read(run.pa, row + run.offset, run.bytes);
  });
  return out;
}

}  // namespace maco::core

// System-level configuration: the paper's published parameters (Table I,
// Table IV, Section III.A) plus the analytic model's constants, each
// documented where it is declared. Every hardware knob of `macosim` sets a
// field here.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "cpu/core.hpp"
#include "mem/ccm.hpp"
#include "mem/dram.hpp"
#include "mmae/accelerator_controller.hpp"
#include "noc/icnt.hpp"
#include "noc/link_load_model.hpp"
#include "noc/mesh_config.hpp"
#include "sa/types.hpp"

namespace maco::core {

// Observability level of the detailed machine. kOff (default) records
// nothing beyond what components count anyway and is bit-identical in
// timing to a build without the knob; kCounters additionally enables
// per-link NoC traffic accounting and, after the run, has obs::collect
// gather every component counter under hierarchical dotted names and roll
// them into metrics. Profiling never feeds back into timing (pinned by
// tests/test_obs.cpp).
enum class ProfileMode : unsigned { kOff = 0, kCounters = 1 };

const char* profile_mode_name(ProfileMode mode) noexcept;
ProfileMode parse_profile_mode(const std::string& name);

struct SystemConfig {
  unsigned node_count = 16;  // up to 16 homogeneous compute nodes
  cpu::CpuConfig cpu{};
  mmae::MmaeConfig mmae{};
  noc::MeshConfig mesh{};  // the one NoC description (see icnt_config())
  unsigned ccm_count = 16;           // one L3 slice per mesh node
  mem::CcmConfig ccm{};
  unsigned dram_channels = 4;
  mem::DramConfig dram{};                   // per-channel backend + timings
  noc::IcntKind icnt = noc::IcntKind::kAnalytic;  // detailed-machine NoC
  ProfileMode profile = ProfileMode::kOff;  // observability (see obs/)
  // Whether operand values travel through the detailed machine. Not a
  // hardware knob: no ParamSchema, store fingerprint or CLI sees it.
  // Timing never reads a value, so the detailed runners switch it off and
  // move only the traffic; direct MacoSystem users that read results back
  // keep the default.
  bool carry_values = true;

  // Latency constants of the analytic timing model (the detailed machine
  // times each walk through its own caches and DRAM instead).
  sim::TimePs pte_cold_latency_ps = 80'000;  // leaf PTE read when the page
                                             // table line is cold (DRAM)
  sim::TimePs pte_warm_latency_ps = 14'000;  // leaf PTE read hitting L3
  // Unhideable pipeline bubble per blocking walk when translation is NOT
  // predicted: the A-operand stream stalls the array until the walk's
  // address resolves; address-ahead issue recovers all but this residue.
  // Calibrated against Fig. 6's 6.3-6.5% plateau.
  sim::TimePs pte_exposed_bubble_ps = 6'500;
  // Sustained fraction of DDR pin bandwidth (row misses, refresh, rw
  // turnaround). Total effective supply = channels * bw * efficiency.
  double dram_efficiency = 0.72;
  // Mesh positions of the DDR controllers (edge nodes), for NoC fill flows.
  std::array<noc::NodeId, 4> dram_node_ids{0, 3, 12, 15};
  // Without stash+lock, tile reads are latency-bound DRAM round trips; the
  // DMA queues are sized to the array they feed, so sustainable bandwidth
  // is (PEs * inflight-bytes-per-PE) / loaded round trip.
  unsigned dma_inflight_bytes_per_pe = 32;
  double dram_row_miss_factor = 1.5;  // strided tile rows reopen DRAM rows

  // ---- derived quantities ----
  double mmae_peak_macs(sa::Precision p) const noexcept {
    return mmae.frequency_hz * mmae.sa.rows * mmae.sa.cols * sa::simd_ways(p);
  }
  double mmae_peak_flops(sa::Precision p) const noexcept {
    return 2.0 * mmae_peak_macs(p);
  }
  double cpu_peak_flops(sa::Precision p) const noexcept {
    return cpu.kernels.peak_flops(p);
  }
  std::uint64_t l3_total_bytes() const noexcept {
    return static_cast<std::uint64_t>(ccm_count) * ccm.l3.size_bytes;
  }
  double dram_total_bandwidth() const noexcept {
    return dram_channels * dram.bandwidth_bytes_per_second;
  }
  // Per-direction NoC link bandwidth (256-bit @ 2 GHz = 64 GB/s).
  double node_link_bandwidth() const noexcept {
    return mesh.flit_bytes * 1e12 / static_cast<double>(mesh.cycle_ps);
  }
  // The analytic contention model and the detailed machine's interconnect
  // backend, both derived from the mesh geometry so neither fidelity can
  // desynchronize from it.
  noc::LinkLoadConfig link_load_config() const noexcept {
    noc::LinkLoadConfig c;
    c.width = mesh.width;
    c.height = mesh.height;
    c.link_bytes_per_second = node_link_bandwidth();
    return c;
  }
  noc::IcntConfig icnt_config() const noexcept {
    noc::IcntConfig c;
    c.kind = icnt;
    c.width = mesh.width;
    c.height = mesh.height;
    c.flit_bytes = mesh.flit_bytes;
    c.header_bytes = mesh.header_bytes;
    c.cycle_ps = mesh.cycle_ps;
    return c;
  }

  // The paper's configuration.
  static SystemConfig maco_default();
};

}  // namespace maco::core

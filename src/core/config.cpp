#include "core/config.hpp"

#include <stdexcept>

namespace maco::core {

const char* profile_mode_name(ProfileMode mode) noexcept {
  return mode == ProfileMode::kCounters ? "counters" : "off";
}

ProfileMode parse_profile_mode(const std::string& name) {
  if (name == "off") return ProfileMode::kOff;
  if (name == "counters") return ProfileMode::kCounters;
  throw std::invalid_argument("unknown profile mode '" + name +
                              "' (expected off|counters)");
}

SystemConfig SystemConfig::maco_default() {
  SystemConfig config;
  // Table I / Table IV values are already the defaults of the component
  // configs; restate the load-bearing ones so this function documents the
  // whole platform.
  config.node_count = 16;

  config.cpu.kernels.frequency_hz = 2.2e9;
  config.cpu.issue_width = 4;
  config.cpu.mmu.l2_tlb_entries = 1024;

  config.mmae.frequency_hz = 2.5e9;
  config.mmae.sa.rows = 4;
  config.mmae.sa.cols = 4;
  config.mmae.use_matlb = true;

  config.mesh.width = 4;
  config.mesh.height = 4;
  config.mesh.flit_bytes = 32;   // 256-bit
  config.mesh.cycle_ps = 500;    // 2 GHz

  config.ccm_count = 16;
  config.ccm.l3.size_bytes = 2 * 1024 * 1024;  // 32 MiB system cache total
  config.ccm.l3.ways = 16;

  config.dram_channels = 4;
  config.dram.bandwidth_bytes_per_second = 51.2e9;  // DDR4-3200 x2 per ctrl
  config.dram.access_latency_ps = 60'000;
  return config;
}

}  // namespace maco::core

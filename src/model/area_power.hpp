// Analytic area/power model (paper Table IV, 12 nm).
//
// Component areas and energies are bottom-up: SRAM macros by capacity, FMAC
// datapaths by count, control by queue sizing. The per-unit constants are
// calibrated once against the paper's published totals and breakdown
// (MMAE 1.58 mm² = Buffers 36.7% / SA 24.7% / AC 23.4% / ADE 15.8%;
// CPU 6.25 mm²; 1.5 W / 2.0 W) — the model then *derives* the ratios the
// paper argues from (9× GFLOPS/mm², 2× GFLOPS/W, 25% relative area).
#pragma once

#include <cstdint>
#include <string>

namespace maco::model {

// 12 nm-calibrated unit constants.
struct TechnologyConstants {
  double sram_mm2_per_kib = 0.00302;       // buffer/cache macro density
  double cam_mm2_per_entry = 0.00033;      // fully-associative TLB entry
  double fmac_mm2 = 0.0244;                // multi-precision FP64 FMAC + regs
  double dma_engine_mm2 = 0.060;
  double queue_mm2_per_entry = 0.015;      // task-queue entry + sequencer slice
  double control_base_mm2 = 0.25;          // AC scheduler/decoder base
  double addr_gen_mm2 = 0.053;             // ADE address generators
  double cpu_logic_base_mm2 = 3.87;        // OoO front/back end (Table I core)

  double fmac_energy_pj = 30.0;            // per FP64 MAC incl. operand drive
  double sram_watts_per_kib_active = 1.11e-3;
  double leakage_watts_per_mm2 = 0.055;
  double cpu_ooo_overhead_watts = 0.45;    // rename/ROB/issue at full tilt
};

struct MmaeParams {
  double frequency_hz = 2.5e9;
  unsigned fmacs = 16;              // 4×4 array
  unsigned buffer_kib = 192;        // A/B/C buffers
  unsigned stq_entries = 8;
  unsigned matlb_entries = 256;
  unsigned dma_engines = 2;
};

struct CpuParams {
  double frequency_hz = 2.2e9;
  unsigned fmacs = 8;
  unsigned l1_cache_kib = 96;   // Table I: 48 KiB I + 48 KiB D
  unsigned l2_cache_kib = 512;  // Table I: private L2
  unsigned tlb_entries = 1072;  // Table I: 48-entry L1 DTLB + 1024 sTLB
};

struct AreaBreakdown {
  double buffers_mm2 = 0;
  double sa_mm2 = 0;
  double ac_mm2 = 0;
  double ade_mm2 = 0;
  double total_mm2 = 0;

  double buffers_fraction() const noexcept { return buffers_mm2 / total_mm2; }
  double sa_fraction() const noexcept { return sa_mm2 / total_mm2; }
  double ac_fraction() const noexcept { return ac_mm2 / total_mm2; }
  double ade_fraction() const noexcept { return ade_mm2 / total_mm2; }
};

struct UnitSummary {
  std::string name;
  double frequency_ghz = 0;
  double area_mm2 = 0;
  double power_watts = 0;
  unsigned fmacs = 0;
  double peak_gflops_fp64 = 0;
  double peak_gflops_fp32 = 0;
  double peak_gflops_fp16 = 0;  // 0 when unsupported

  double area_efficiency() const noexcept {  // GFLOPS/mm² (FP64)
    return peak_gflops_fp64 / area_mm2;
  }
  double power_efficiency() const noexcept {  // GFLOPS/W (FP64)
    return peak_gflops_fp64 / power_watts;
  }
};

class AreaPowerModel {
 public:
  explicit AreaPowerModel(TechnologyConstants tech = {}) : tech_(tech) {}

  AreaBreakdown mmae_area(const MmaeParams& params) const;
  double mmae_power(const MmaeParams& params) const;
  double cpu_area(const CpuParams& params) const;
  double cpu_power(const CpuParams& params) const;

  UnitSummary mmae_summary(const MmaeParams& params = {}) const;
  UnitSummary cpu_summary(const CpuParams& params = {}) const;

  const TechnologyConstants& tech() const noexcept { return tech_; }

 private:
  TechnologyConstants tech_;
};

}  // namespace maco::model

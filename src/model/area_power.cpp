#include "model/area_power.hpp"

namespace maco::model {

AreaBreakdown AreaPowerModel::mmae_area(const MmaeParams& params) const {
  AreaBreakdown area;
  area.buffers_mm2 = tech_.sram_mm2_per_kib * params.buffer_kib;
  area.sa_mm2 = tech_.fmac_mm2 * params.fmacs;
  area.ac_mm2 =
      tech_.control_base_mm2 + tech_.queue_mm2_per_entry * params.stq_entries;
  area.ade_mm2 = tech_.dma_engine_mm2 * params.dma_engines +
                 tech_.cam_mm2_per_entry * params.matlb_entries +
                 tech_.addr_gen_mm2;
  area.total_mm2 =
      area.buffers_mm2 + area.sa_mm2 + area.ac_mm2 + area.ade_mm2;
  return area;
}

double AreaPowerModel::mmae_power(const MmaeParams& params) const {
  const AreaBreakdown area = mmae_area(params);
  const double fmac_watts =
      params.fmacs * params.frequency_hz * tech_.fmac_energy_pj * 1e-12;
  const double buffer_watts =
      tech_.sram_watts_per_kib_active * params.buffer_kib;
  const double leakage = tech_.leakage_watts_per_mm2 * area.total_mm2;
  return fmac_watts + buffer_watts + leakage;
}

double AreaPowerModel::cpu_area(const CpuParams& params) const {
  return tech_.cpu_logic_base_mm2 + tech_.fmac_mm2 * params.fmacs +
         tech_.sram_mm2_per_kib *
             (params.l1_cache_kib + params.l2_cache_kib) +
         tech_.cam_mm2_per_entry * params.tlb_entries;
}

double AreaPowerModel::cpu_power(const CpuParams& params) const {
  const double fmac_watts =
      params.fmacs * params.frequency_hz * tech_.fmac_energy_pj * 1e-12;
  const double sram_watts = tech_.sram_watts_per_kib_active *
                            (params.l1_cache_kib + params.l2_cache_kib);
  const double leakage = tech_.leakage_watts_per_mm2 * cpu_area(params);
  return fmac_watts + sram_watts + leakage + tech_.cpu_ooo_overhead_watts;
}

UnitSummary AreaPowerModel::mmae_summary(const MmaeParams& params) const {
  UnitSummary s;
  s.name = "MMAE";
  s.frequency_ghz = params.frequency_hz / 1e9;
  s.area_mm2 = mmae_area(params).total_mm2;
  s.power_watts = mmae_power(params);
  s.fmacs = params.fmacs;
  // Peak = 2 * freq * FMACs, with 2-way FP32 / 4-way FP16 SIMD (Fig. 2).
  s.peak_gflops_fp64 = 2.0 * params.frequency_hz * params.fmacs / 1e9;
  s.peak_gflops_fp32 = 2.0 * s.peak_gflops_fp64;
  s.peak_gflops_fp16 = 4.0 * s.peak_gflops_fp64;
  return s;
}

UnitSummary AreaPowerModel::cpu_summary(const CpuParams& params) const {
  UnitSummary s;
  s.name = "CPU";
  s.frequency_ghz = params.frequency_hz / 1e9;
  s.area_mm2 = cpu_area(params);
  s.power_watts = cpu_power(params);
  s.fmacs = params.fmacs;
  s.peak_gflops_fp64 = 2.0 * params.frequency_hz * params.fmacs / 1e9;
  s.peak_gflops_fp32 = 2.0 * s.peak_gflops_fp64;
  s.peak_gflops_fp16 = 0.0;  // the core's VFU has no FP16 GEMM mode
  return s;
}

}  // namespace maco::model

#include "driver/hardware_knobs.hpp"

#include "mem/dram.hpp"
#include "noc/icnt.hpp"
#include "util/table.hpp"

namespace maco::driver {

const exp::ParamSchema& hardware_schema() {
  // Defaults come from the platform config itself, so --list-scenarios can
  // never drift from what SystemConfig::maco_default() actually builds.
  static const exp::ParamSchema schema = [] {
    const core::SystemConfig d = core::SystemConfig::maco_default();
    exp::ParamSchema s;
    s.u64("node_count", d.node_count, "compute nodes instantiated", 1, 64);
    s.u64("mesh_width", d.mesh.width,
          "NoC mesh width (icnt and link-load geometry)", 1,
          noc::kMaxMeshSide);
    s.u64("mesh_height", d.mesh.height,
          "NoC mesh height (icnt and link-load geometry)", 1,
          noc::kMaxMeshSide);
    s.u64("sa_rows", d.mmae.sa.rows, "systolic array rows per MMAE", 1,
          256);
    s.u64("sa_cols", d.mmae.sa.cols, "systolic array columns per MMAE", 1,
          256);
    s.u64("dram_channels", d.dram_channels, "DDR channels", 1, 64);
    s.f64("dram_efficiency", d.dram_efficiency,
          "sustained fraction of DDR pin bandwidth", 0.01, 1.0);
    // Backend traits: which DRAM/interconnect model the detailed machine
    // instantiates. `simple`/`analytic` preserve the historic behavior.
    s.enumerant("dram", std::string(mem::dram_kind_name(d.dram.kind)),
                {"simple", "queued"},
                "DRAM backend: flat-latency token bucket or banked "
                "row-buffer model (fidelity=detailed|sampled)");
    s.enumerant("icnt", std::string(noc::icnt_kind_name(d.icnt)),
                {"analytic", "flit"},
                "interconnect backend: X-Y hop formula or flit-level "
                "link booking (fidelity=detailed|sampled)");
    s.enumerant("profile", std::string(core::profile_mode_name(d.profile)),
                {"off", "counters"},
                "observability: collect component counters after the "
                "run and roll them into metrics "
                "(fidelity=detailed; off is zero-overhead)");
    s.u64("dram_banks", d.dram.banks, "banks per DDR channel (dram=queued)",
          1, 64);
    s.u64("row_buffer_kib", d.dram.row_buffer_bytes / 1024,
          "row buffer (DRAM page) per bank in KiB (dram=queued)", 1, 64);
    s.u64("t_rc_ps", d.dram.t_rc_ps,
          "minimum same-bank ACT-to-ACT spacing in ps (dram=queued)",
          1'000, 1'000'000);
    s.u64("ccm_count", d.ccm_count, "L3/CCM slices", 1, 64);
    s.u64("matlb_entries", d.mmae.matlb_entries, "mATLB capacity", 1,
          65536);
    s.u64("l3_slice_kib", d.ccm.l3.size_bytes / 1024,
          "L3 capacity per CCM slice (KiB)", 64, 65536);
    s.u64("stlb_entries", d.cpu.mmu.l2_tlb_entries,
          "shared (L2) TLB entries per node", 16, 65536);
    s.u64("dma_outstanding", d.mmae.dma.max_outstanding,
          "DMA bursts in flight before issue stalls", 1, 256);
    s.u64("stq_entries", d.mmae.stq_entries,
          "slave task queue depth per MMAE", 1, 256);
    // Mesh capacity rules, declared so --list-scenarios surfaces them and
    // bind() rejects a violating point before any run; the deeper DDR
    // placement check (which needs the resulting SystemConfig) stays in
    // apply_hardware_params.
    s.constrain("node_count <= mesh_width*mesh_height",
                [](const exp::ParamSet& p) {
                  return p.u64("node_count") <=
                         p.u64("mesh_width") * p.u64("mesh_height");
                });
    s.constrain("ccm_count <= mesh_width*mesh_height",
                [](const exp::ParamSet& p) {
                  return p.u64("ccm_count") <=
                         p.u64("mesh_width") * p.u64("mesh_height");
                });
    // Bank-model knobs are meaningless under the flat controller; setting
    // one there is a typo or a misunderstanding, not a sweep point.
    s.constrain("dram_banks/row_buffer_kib/t_rc_ps require dram=queued",
                [](const exp::ParamSet& p) {
                  return p.str("dram") == "queued" ||
                         (!p.was_set("dram_banks") &&
                          !p.was_set("row_buffer_kib") &&
                          !p.was_set("t_rc_ps"));
                });
    return s;
  }();
  return schema;
}

void apply_hardware_params(const exp::ParamSet& params,
                           core::SystemConfig& config) {
  const auto u64_knob = [&](const char* name, auto apply) {
    if (params.was_set(name)) apply(params.u64(name));
  };
  u64_knob("node_count", [&](std::uint64_t v) {
    config.node_count = static_cast<unsigned>(v);
  });
  u64_knob("mesh_width", [&](std::uint64_t v) {
    config.mesh.width = static_cast<unsigned>(v);
  });
  u64_knob("mesh_height", [&](std::uint64_t v) {
    config.mesh.height = static_cast<unsigned>(v);
  });
  u64_knob("sa_rows", [&](std::uint64_t v) {
    config.mmae.sa.rows = static_cast<unsigned>(v);
  });
  u64_knob("sa_cols", [&](std::uint64_t v) {
    config.mmae.sa.cols = static_cast<unsigned>(v);
  });
  u64_knob("dram_channels", [&](std::uint64_t v) {
    config.dram_channels = static_cast<unsigned>(v);
  });
  u64_knob("ccm_count", [&](std::uint64_t v) {
    config.ccm_count = static_cast<unsigned>(v);
  });
  u64_knob("matlb_entries", [&](std::uint64_t v) {
    config.mmae.matlb_entries = static_cast<std::size_t>(v);
  });
  u64_knob("l3_slice_kib", [&](std::uint64_t v) {
    config.ccm.l3.size_bytes = static_cast<std::size_t>(v) * 1024;
  });
  u64_knob("stlb_entries", [&](std::uint64_t v) {
    config.cpu.mmu.l2_tlb_entries = static_cast<std::size_t>(v);
  });
  u64_knob("dma_outstanding", [&](std::uint64_t v) {
    config.mmae.dma.max_outstanding = static_cast<unsigned>(v);
  });
  u64_knob("stq_entries", [&](std::uint64_t v) {
    config.mmae.stq_entries = static_cast<unsigned>(v);
  });
  if (params.was_set("dram_efficiency")) {
    config.dram_efficiency = params.f64("dram_efficiency");
  }
  if (params.has("dram")) {
    config.dram.kind = mem::parse_dram_kind(params.str("dram"));
  }
  if (params.has("icnt")) {
    config.icnt = noc::parse_icnt_kind(params.str("icnt"));
  }
  if (params.has("profile")) {
    config.profile = core::parse_profile_mode(params.str("profile"));
  }
  u64_knob("dram_banks", [&](std::uint64_t v) {
    config.dram.banks = static_cast<unsigned>(v);
  });
  u64_knob("row_buffer_kib", [&](std::uint64_t v) {
    config.dram.row_buffer_bytes = v * 1024;
  });
  u64_knob("t_rc_ps", [&](std::uint64_t v) {
    config.dram.t_rc_ps = static_cast<sim::TimePs>(v);
  });

  // Cross-field constraints the per-value schema cannot express: every
  // node, CCM slice and DDR controller needs a mesh position.
  const std::uint64_t mesh_positions =
      static_cast<std::uint64_t>(config.mesh.width) * config.mesh.height;
  if (config.node_count > mesh_positions) {
    throw std::invalid_argument(
        "node_count " + std::to_string(config.node_count) + " exceeds the " +
        std::to_string(config.mesh.width) + "x" +
        std::to_string(config.mesh.height) +
        " mesh; raise mesh_width/mesh_height");
  }
  if (config.ccm_count > mesh_positions) {
    throw std::invalid_argument(
        "ccm_count " + std::to_string(config.ccm_count) + " exceeds the " +
        std::to_string(config.mesh.width) + "x" +
        std::to_string(config.mesh.height) +
        " mesh; raise mesh_width/mesh_height");
  }
  for (const noc::NodeId dram_node : config.dram_node_ids) {
    if (static_cast<std::uint64_t>(dram_node) >= mesh_positions) {
      throw std::invalid_argument(
          "mesh " + std::to_string(config.mesh.width) + "x" +
          std::to_string(config.mesh.height) +
          " cannot host the DDR controller at mesh node " +
          std::to_string(dram_node) + "; the platform needs at least 16 "
          "mesh positions");
    }
  }
}

void print_hardware_knob_table(std::ostream& out, const std::string& title) {
  util::Table table({"Hardware knob", "Type", "Default", "Range",
                     "Description"});
  for (const exp::ParamDecl& decl : hardware_schema().decls()) {
    table.row()
        .cell(decl.name)
        .cell(exp::param_type_name(decl.type))
        .cell(decl.default_value.to_string())
        .cell(decl.range_text())
        .cell(decl.description);
  }
  table.print(out, title);
  for (const exp::ParamConstraint& constraint :
       hardware_schema().constraints()) {
    out << "  constraint: " << constraint.rule << "\n";
  }
}

}  // namespace maco::driver

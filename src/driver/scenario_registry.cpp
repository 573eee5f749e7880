#include "driver/scenario_registry.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "baselines/comparison.hpp"
#include "core/detailed_runner.hpp"
#include "core/timing_model.hpp"
#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"
#include "mem/cache.hpp"
#include "mem/queued_dram.hpp"
#include "model/area_power.hpp"
#include "obs/collector.hpp"
#include "obs/observation.hpp"
#include "obs/trace_writer.hpp"
#include "sa/sparse.hpp"
#include "serve/server.hpp"
#include "util/file.hpp"
#include "workloads/gemm_workload.hpp"
#include "workloads/hpl.hpp"

namespace maco::driver {
namespace {

const std::vector<std::string>& precision_choices() {
  static const std::vector<std::string> choices = {"fp64", "fp32", "fp16"};
  return choices;
}

sa::Precision precision_from(const std::string& name) {
  if (name == "fp64") return sa::Precision::kFp64;
  if (name == "fp32") return sa::Precision::kFp32;
  if (name == "fp16") return sa::Precision::kFp16;
  throw std::invalid_argument("unknown precision '" + name + "'");
}

// Schema shared by every timing scenario. Defaults that the old string API
// resolved "per scenario" at run time are now declared per scenario.
// `nodes` follows the instantiated node_count unless set explicitly, so a
// node_count sweep activates the extra nodes; the declared 16 documents
// the paper platform.
void declare_nodes(exp::ParamSchema& s, const char* description) {
  s.u64("nodes", 16, description, 1, 64);
}

// The cross-schema companion of declare_nodes: an explicitly-set `nodes`
// must fit the instantiated hardware (unset `nodes` follows node_count, so
// it can never violate the rule). Declared, checked per point by the sweep
// runner and printed by --list-scenarios — the historic silent clamp in
// active_nodes_from under-reported what the user asked for.
CrossRule nodes_fit_hardware_rule() {
  return CrossRule{
      "nodes <= node_count",
      [](const exp::ParamSet& scenario, const exp::ParamSet& hardware) {
        return !scenario.was_set("nodes") ||
               scenario.u64("nodes") <= hardware.u64("node_count");
      }};
}

// The dram/icnt backend traits exist on the detailed machine only. For a
// scenario that declares `fidelity`, an analytic point must keep the
// defaults (the closed forms have no banked-DRAM/flit terms, so a
// non-default choice would be silently ignored — make it a typed error
// naming the valid combos instead).
CrossRule backends_need_detail_rule() {
  return CrossRule{
      "dram=queued|icnt=flit require fidelity=detailed|sampled "
      "(fidelity=analytic supports the defaults only)",
      [](const exp::ParamSet& scenario, const exp::ParamSet& hardware) {
        return scenario.str("fidelity") != "analytic" ||
               (hardware.str("dram") == "simple" &&
                hardware.str("icnt") == "analytic");
      }};
}

// profile=counters collects the detailed machine's component counters;
// the closed forms have nothing to collect, so a counters point that
// doesn't run the detailed backend would silently report no counters —
// make it a typed error instead. Scenarios whose fidelity list excludes
// "detailed" reject profile=counters outright through this rule.
CrossRule profile_needs_detailed_rule() {
  return CrossRule{
      "profile=counters requires fidelity=detailed",
      [](const exp::ParamSet& scenario, const exp::ParamSet& hardware) {
        return hardware.str("profile") != "counters" ||
               scenario.str("fidelity") == "detailed";
      }};
}

// The same guard for scenarios with no detailed machine at all (no
// `fidelity` parameter): backend/observability knobs are inapplicable.
CrossRule backends_fixed_rule() {
  return CrossRule{
      "dram=simple, icnt=analytic, profile=off (scenario has no detailed "
      "machine)",
      [](const exp::ParamSet&, const exp::ParamSet& hardware) {
        return hardware.str("dram") == "simple" &&
               hardware.str("icnt") == "analytic" &&
               hardware.str("profile") == "off";
      }};
}

unsigned active_nodes_from(const ScenarioRequest& request) {
  if (!request.params.was_set("nodes")) {
    return request.config.node_count;
  }
  const std::uint64_t nodes = request.params.u64("nodes");
  // Backstop for callers that build a ScenarioRequest directly; sweep
  // points are rejected earlier by the declared `nodes <= node_count`
  // cross rule.
  if (nodes > request.config.node_count) {
    throw std::invalid_argument(
        "nodes " + std::to_string(nodes) + " exceeds node_count " +
        std::to_string(request.config.node_count) +
        " (raise --set node_count=... or lower nodes)");
  }
  return static_cast<unsigned>(nodes);
}

// Schema shared by the machine-workload scenarios (gemm, hpl, graph);
// each lists "sampled" among its fidelities, so the estimator's knobs and
// the sampled tile cap are declared here too.
exp::ParamSchema timing_schema(const char* default_precision,
                               bool default_cooperative,
                               std::vector<std::string> fidelities) {
  exp::ParamSchema s;
  declare_nodes(s, "active compute nodes (defaults to node_count)");
  s.enumerant("precision", default_precision, precision_choices(),
              "MAC precision");
  s.flag("matlb", true, "predictive address translation on/off");
  s.flag("stash_lock", true, "L3 stash+lock mapping on/off");
  s.flag("cooperative", default_cooperative,
         "split one GEMM across nodes");
  s.u64("tile", 1024, "first-level tile rows/cols", 1, 65535);
  s.u64("inner", 64, "second-level (systolic) tile", 1, 65535);
  s.u64("page_bytes", 4096, "translation page size", 256, 1048576);
  s.enumerant("fidelity", "analytic", std::move(fidelities),
              "execution backend");
  s.f64("sample_frac", 0.05, "tile fraction simulated per stratum "
        "(fidelity=sampled)", 1e-9, 1.0);
  s.u64("sample_seed", 1, "stratified-draw seed (fidelity=sampled)");
  s.f64("ci_target", 0.0, "adaptive sampling until relative 95% CI <= "
        "target; 0 disables (fidelity=sampled)", 0.0, 1.0);
  s.u64("sample_workers", 0, "parallel tile-batch simulations, 0 = one "
        "per hardware thread (fidelity=sampled)", 0, 64);
  s.constrain("fidelity=sampled requires tile <= " +
                  std::to_string(core::kDetailedMaxDim),
              [](const exp::ParamSet& p) {
                return p.str("fidelity") != "sampled" ||
                       p.u64("tile") <= core::kDetailedMaxDim;
              });
  return s;
}

core::TimingOptions timing_options_from(const ScenarioRequest& request) {
  core::TimingOptions options;
  options.precision = precision_from(request.params.str("precision"));
  options.active_nodes = active_nodes_from(request);
  options.cooperative = request.params.flag("cooperative");
  options.use_matlb = request.params.flag("matlb");
  options.use_stash_lock = request.params.flag("stash_lock");
  options.tile = request.params.u64("tile");
  options.inner = request.params.u64("inner");
  options.page_bytes = request.params.u64("page_bytes");
  options.sample_frac = request.params.f64("sample_frac");
  options.sample_seed = request.params.u64("sample_seed");
  options.ci_target = request.params.f64("ci_target");
  options.sample_workers =
      static_cast<unsigned>(request.params.u64("sample_workers"));
  return options;
}

// core::OsStats -> os_* metrics: every run driven through os::Scheduler
// (fidelity=detailed GEMM, serve's detailed batch oracle) reports the OS
// software counters instead of discarding them. All are diagnostics; the
// event counters gate as lower-is-better so a scheduling regression (more
// switches or rounds) shows up in report --compare.
void add_os_metrics(ScenarioResult& result, const core::OsStats& os) {
  result.add("os_context_switches",
             static_cast<double>(os.context_switches), "",
             /*higher_is_better=*/false);
  result.add("os_scheduling_rounds",
             static_cast<double>(os.scheduling_rounds), "",
             /*higher_is_better=*/false);
  result.add("os_tasks_completed",
             static_cast<double>(os.tasks_completed));
}

void add_system_metrics(ScenarioResult& result,
                        const core::SystemTiming& timing) {
  result.add("gflops", timing.total_gflops, "GFLOP/s");
  result.add("mean_efficiency", timing.mean_efficiency);
  result.add("makespan_ms", static_cast<double>(timing.makespan_ps) / 1e9,
             "ms", /*higher_is_better=*/false);
  result.add("walks_per_tile", timing.translation.walks_per_tile, "",
             /*higher_is_better=*/false);
  result.add("pages_per_tile", timing.translation.pages_per_tile, "",
             /*higher_is_better=*/false);
  if (timing.sampling.present()) {
    // Error-bar companions: metric X's 95% half-width is X_ci95, the
    // convention store::compare_campaigns keys interval overlap on. The
    // throughput/efficiency intervals follow from the makespan's relative
    // width (both are exact-MAC counts divided by the estimated time).
    const double rel =
        timing.sampling.rel_ci95(static_cast<double>(timing.makespan_ps));
    result.add("makespan_ms_ci95",
               timing.sampling.makespan_ci95_ps / 1e9, "ms",
               /*higher_is_better=*/false);
    result.add("makespan_ms_se", timing.sampling.makespan_se_ps / 1e9,
               "ms", /*higher_is_better=*/false);
    result.add("gflops_ci95", rel * timing.total_gflops, "GFLOP/s",
               /*higher_is_better=*/false);
    result.add("mean_efficiency_ci95", rel * timing.mean_efficiency, "",
               /*higher_is_better=*/false);
    result.add("sampled_tiles",
               static_cast<double>(timing.sampling.sampled_tiles));
    result.add("total_tiles",
               static_cast<double>(timing.sampling.total_tiles));
  }
  if (timing.os.present) {
    add_os_metrics(result, timing.os);
  }
}

// Runs the backend with `observation` attached when the request wants
// counters (profile=counters) or a trace (--trace-out); a plain run
// otherwise, so unobserved points take the exact historic path.
core::SystemTiming run_observed(const ScenarioRequest& request,
                                exp::ExecutionBackend& backend,
                                const core::TimingOptions& options,
                                obs::RunObservation& observation) {
  observation.want_counters =
      request.config.profile == core::ProfileMode::kCounters;
  observation.want_trace = request.collect_trace;
  if (!observation.want_counters && !observation.want_trace) {
    return backend.run(options);
  }
  return backend.run(options, &observation);
}

// Rolls a filled observation into the result: counter-derived metrics
// (l2_hit_rate, dram_row_hit_rate, noc_max_link_util, ...) when counters
// were collected, and the Chrome/Perfetto trace JSON when the request
// asked for a trace and the run produced spans.
void add_observation_outputs(const ScenarioRequest& request,
                             const obs::RunObservation& observation,
                             ScenarioResult& result) {
  if (observation.want_counters) {
    obs::add_counter_metrics(result, observation);
  }
  if (request.collect_trace && !observation.spans.empty()) {
    result.trace_json = obs::to_perfetto_json(observation);
  }
}

Scenario gemm_scenario() {
  Scenario s;
  s.name = "gemm";
  s.description =
      "square GEMM on the full MACO system (independent per node by "
      "default, as Fig. 7)";
  s.schema = timing_schema("fp64", /*default_cooperative=*/false,
                           {"analytic", "detailed", "sampled"});
  s.schema.u64("size", 4096, "square matrix dimension", 1, 1048576);
  s.schema.constrain(
      "fidelity=detailed requires size <= " +
          std::to_string(core::kDetailedMaxDim),
      [](const exp::ParamSet& p) {
        return p.str("fidelity") != "detailed" ||
               p.u64("size") <= core::kDetailedMaxDim;
      });
  s.cross_rules.push_back(nodes_fit_hardware_rule());
  s.cross_rules.push_back(backends_need_detail_rule());
  s.cross_rules.push_back(profile_needs_detailed_rule());
  s.run = [](const ScenarioRequest& request) {
    const auto backend = request.backend();
    core::TimingOptions options = timing_options_from(request);
    const std::uint64_t size = request.params.u64("size");
    options.shape = sa::TileShape{size, size, size};
    obs::RunObservation observation;
    const core::SystemTiming timing =
        run_observed(request, *backend, options, observation);
    ScenarioResult result;
    result.add("size", static_cast<double>(size));
    add_system_metrics(result, timing);
    add_observation_outputs(request, observation, result);
    return result;
  };
  return s;
}

Scenario hpl_scenario() {
  Scenario s;
  s.name = "hpl";
  s.description =
      "HPL right-looking LU trailing-update GEMM sequence (FP64, "
      "cooperative)";
  s.schema = timing_schema("fp64", /*default_cooperative=*/true,
                           {"analytic", "sampled"});
  s.schema.u64("n", 16384, "LU problem size", 1, 1048576);
  s.schema.u64("nb", 256, "panel width", 1, 65535);
  s.cross_rules.push_back(nodes_fit_hardware_rule());
  s.cross_rules.push_back(backends_need_detail_rule());
  s.cross_rules.push_back(profile_needs_detailed_rule());
  s.run = [](const ScenarioRequest& request) {
    const wl::Workload workload =
        wl::hpl_workload(request.params.u64("n"), request.params.u64("nb"));
    const auto backend = request.backend();
    const core::SystemTiming timing = backend->run_layers(
        workload.expanded_shapes(), timing_options_from(request));
    ScenarioResult result;
    result.add("total_gflop",
               static_cast<double>(workload.total_flops()) / 1e9, "GFLOP");
    add_system_metrics(result, timing);
    return result;
  };
  return s;
}

// "MACO" -> "maco", "CPU-only" -> "cpu_only": stable metric-name suffixes.
std::string metric_key(const std::string& system) {
  std::string key = system;
  std::transform(key.begin(), key.end(), key.begin(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c))
               ? static_cast<char>(
                     std::tolower(static_cast<unsigned char>(c)))
               : '_';
  });
  return key;
}

// The one way a scenario names a DNN workload: a manifest plus its
// lowering options. Declared by `graph` and `baselines`.
void declare_graph_params(exp::ParamSchema& s, const char* default_model) {
  s.str("model_file", default_model,
        "manifest path, or a builtin name (tiny|resnet50-stage|"
        "bert-block|gpt3-block|moe-mlp)");
  s.u64("batch", 0, "batch size (0 = manifest default)", 0, 4096);
  s.u64("seq_len", 0, "sequence length (0 = manifest default)", 0,
        65536);
  s.enumerant("phase", "prefill", {"prefill", "decode"},
              "prefill: M scales with batch*seq_len; decode: one "
              "token per sequence (M = batch)");
  s.u64("moe_top_k", 0,
        "experts activated per token (0 = the op's attr, itself "
        "defaulting to 2)", 0, 64);
  s.constrain("model_file must be set", [](const exp::ParamSet& p) {
    return !p.str("model_file").empty();
  });
}

// Loads and lowers the manifest named by declare_graph_params' values.
graph::LoweredModel lower_graph_params(const exp::ParamSet& p) {
  graph::LoweringOptions lowering;
  lowering.batch = p.u64("batch");
  lowering.seq_len = p.u64("seq_len");
  lowering.phase = graph::parse_phase(p.str("phase"));
  lowering.moe_top_k = p.u64("moe_top_k");
  return graph::lower(graph::load_graph_model(p.str("model_file")),
                      lowering);
}

Scenario baselines_scenario() {
  Scenario s;
  s.name = "baselines";
  s.description =
      "Fig. 8 five-system comparison (CPU-only, no-mapping, RASA-like, "
      "Gemmini-like, MACO) on one model manifest";
  declare_graph_params(s.schema, "bert-block");
  declare_nodes(s.schema, "MACO node count (others are single-node)");
  s.cross_rules.push_back(nodes_fit_hardware_rule());
  s.cross_rules.push_back(backends_fixed_rule());
  s.run = [](const ScenarioRequest& request) {
    const baseline::Comparator comparator(request.config,
                                          active_nodes_from(request));
    const wl::Workload workload = lower_graph_params(request.params).workload;
    ScenarioResult result;
    double maco_gflops = 0.0;
    double best_rival = 0.0;
    for (const baseline::ComparisonResult& run :
         comparator.run_all(workload)) {
      result.add("gflops_" + metric_key(run.system), run.gflops, "GFLOP/s");
      if (run.system == "MACO") {
        maco_gflops = run.gflops;
      } else {
        best_rival = std::max(best_rival, run.gflops);
      }
    }
    result.add("speedup_vs_best_rival",
               best_rival > 0.0 ? maco_gflops / best_rival : 0.0, "x");
    return result;
  };
  return s;
}

Scenario area_power_scenario() {
  Scenario s;
  s.name = "area_power";
  s.description =
      "Table IV: CPU vs MMAE area/power model and the paper's efficiency "
      "ratios";
  s.cross_rules.push_back(backends_fixed_rule());
  s.run = [](const ScenarioRequest&) {
    const model::AreaPowerModel m;
    const model::UnitSummary cpu = m.cpu_summary();
    const model::UnitSummary mmae = m.mmae_summary();
    ScenarioResult result;
    result.add("cpu_area_mm2", cpu.area_mm2, "mm2",
               /*higher_is_better=*/false);
    result.add("cpu_power_w", cpu.power_watts, "W",
               /*higher_is_better=*/false);
    result.add("cpu_peak_gflops_fp64", cpu.peak_gflops_fp64, "GFLOP/s");
    result.add("mmae_area_mm2", mmae.area_mm2, "mm2",
               /*higher_is_better=*/false);
    result.add("mmae_power_w", mmae.power_watts, "W",
               /*higher_is_better=*/false);
    result.add("mmae_peak_gflops_fp64", mmae.peak_gflops_fp64, "GFLOP/s");
    result.add("relative_area", mmae.area_mm2 / cpu.area_mm2, "x",
               /*higher_is_better=*/false);
    result.add("area_efficiency_ratio",
               mmae.area_efficiency() / cpu.area_efficiency(), "x");
    result.add("power_efficiency_ratio",
               mmae.power_efficiency() / cpu.power_efficiency(), "x");
    return result;
  };
  return s;
}

Scenario sparsity_scenario() {
  Scenario s;
  s.name = "ext_sparsity";
  s.description =
      "extension study: structured N:M weight sparsity on the systolic "
      "array (tile-level timing)";
  s.schema.u64("m", 64, "tile rows", 1, 65536);
  s.schema.u64("n", 64, "tile cols", 1, 65536);
  s.schema.u64("k", 256, "reduction depth", 1, 1048576);
  s.schema.u64("kept", 2, "nonzeros kept per group", 1, 64);
  s.schema.u64("group", 4, "sparsity group size", 1, 64);
  s.schema.constrain("kept <= group", [](const exp::ParamSet& p) {
    return p.u64("kept") <= p.u64("group");
  });
  s.cross_rules.push_back(backends_fixed_rule());
  s.run = [](const ScenarioRequest& request) {
    const sa::TileShape shape{request.params.u64("m"),
                              request.params.u64("n"),
                              request.params.u64("k")};
    sa::SparseSaConfig config;
    config.kept = static_cast<unsigned>(request.params.u64("kept"));
    config.group = static_cast<unsigned>(request.params.u64("group"));
    const sa::SparseSaTiming timing =
        sa::compute_sparse_sa_timing(shape, config);
    ScenarioResult result;
    result.add("dense_cycles", static_cast<double>(timing.dense_cycles),
               "cycles", /*higher_is_better=*/false);
    result.add("sparse_cycles", static_cast<double>(timing.sparse_cycles),
               "cycles", /*higher_is_better=*/false);
    result.add("speedup", timing.speedup, "x");
    result.add("k_compressed", static_cast<double>(timing.k_compressed));
    return result;
  };
  return s;
}

Scenario tables_scenario() {
  Scenario s;
  s.name = "tables";
  s.description =
      "Tables I-III sanity metrics: key architectural parameters as "
      "implemented";
  s.cross_rules.push_back(backends_fixed_rule());
  s.run = [](const ScenarioRequest& request) {
    const core::SystemConfig& config = request.config;
    ScenarioResult result;
    result.add("node_count", config.node_count);
    result.add("cpu_ghz", config.cpu.kernels.frequency_hz / 1e9, "GHz");
    result.add("cpu_issue_width", config.cpu.issue_width);
    result.add("mtq_entries", config.cpu.mtq_entries);
    result.add("mmae_ghz", config.mmae.frequency_hz / 1e9, "GHz");
    result.add("sa_rows", config.mmae.sa.rows);
    result.add("sa_cols", config.mmae.sa.cols);
    result.add("matlb_entries",
               static_cast<double>(config.mmae.matlb_entries));
    result.add("l3_mib",
               static_cast<double>(config.l3_total_bytes()) / (1 << 20),
               "MiB");
    result.add("peak_gflops_fp64",
               config.node_count *
                   config.mmae_peak_flops(sa::Precision::kFp64) / 1e9,
               "GFLOP/s");
    return result;
  };
  return s;
}

Scenario micro_dram_scenario() {
  Scenario s;
  s.name = "micro_dram";
  s.description =
      "DRAM backend micro-bench: a fixed-stride line-read stream driven "
      "straight into dram=simple|queued (deterministic, no machine)";
  s.schema.u64("accesses", 4096, "64B line reads issued", 1, 10'000'000);
  s.schema.u64("stride_bytes", 64,
               "address stride between consecutive reads (row_buffer_kib*"
               "1024*dram_banks lands every read in one bank)",
               1, 1u << 30);
  s.schema.u64("issue_gap_ps", 0,
               "idle time between issues; 0 saturates the channel", 0,
               1'000'000'000);
  // This scenario never touches the NoC or the engine, and the
  // hardware-schema constraint already ties the bank knobs to dram=queued;
  // reject the remaining inapplicable traits explicitly.
  s.cross_rules.push_back(CrossRule{
      "icnt=analytic, profile=off (micro_dram exercises the DRAM model "
      "only)",
      [](const exp::ParamSet&, const exp::ParamSet& hardware) {
        return hardware.str("icnt") == "analytic" &&
               hardware.str("profile") == "off";
      }});
  s.run = [](const ScenarioRequest& request) {
    const auto dram = mem::make_dram_model("micro", request.config.dram);
    const std::uint64_t accesses = request.params.u64("accesses");
    const std::uint64_t stride = request.params.u64("stride_bytes");
    const auto gap =
        static_cast<sim::TimePs>(request.params.u64("issue_gap_ps"));
    sim::TimePs makespan = 0;
    for (std::uint64_t i = 0; i < accesses; ++i) {
      const sim::TimePs done =
          dram->access(static_cast<sim::TimePs>(i) * gap, i * stride,
                       mem::kLineBytes);
      makespan = std::max(makespan, done);
    }
    ScenarioResult result;
    result.add("makespan_us", static_cast<double>(makespan) / 1e6, "us",
               /*higher_is_better=*/false);
    result.add("reads_per_us",
               makespan > 0
                   ? static_cast<double>(accesses) /
                         (static_cast<double>(makespan) / 1e6)
                   : 0.0,
               "1/us");
    result.add("bus_utilization", dram->utilization(makespan));
    if (const auto* queued =
            dynamic_cast<const mem::QueuedDramController*>(dram.get())) {
      result.add("row_hit_rate", queued->row_hit_rate());
      result.add("row_conflicts",
                 static_cast<double>(queued->row_conflicts()), "",
                 /*higher_is_better=*/false);
    }
    return result;
  };
  return s;
}

// The serve subsystem as a scenario: open/closed-loop request streams,
// per-tenant dynamic batching, latency percentiles and SLO goodput.
Scenario serve_scenario() {
  Scenario s;
  s.name = "serve";
  s.description =
      "multi-tenant serving: open-loop (poisson/uniform/trace) or "
      "closed-loop request streams through dynamic batching, reporting "
      "latency percentiles, goodput and fairness";
  s.schema.enumerant("model", "tiny", {"tiny", "resnet50", "bert", "gpt3"},
                     "served model (tiny fits fidelity=detailed)");
  s.schema.u64("seq_len", 384, "sequence length (bert/gpt3)", 1, 65536);
  s.schema.enumerant("arrival", "poisson",
                     {"poisson", "uniform", "trace", "closed"},
                     "arrival process; closed = fixed-concurrency loop");
  s.schema.f64("arrival_rate_rps", 200.0,
               "aggregate open-loop arrival rate", 1e-6, 1e12);
  s.schema.u64("requests", 2000, "requests to serve", 1, 100'000'000);
  s.schema.u64("tenants", 2, "admission domains sharing the machine", 1,
               1024);
  s.schema.u64("max_batch", 8, "seal a batch at this size", 1, 4096);
  s.schema.u64("batch_timeout_us", 200,
               "oldest-waiter age forcing a seal; 0 = no batching", 0,
               1'000'000'000);
  s.schema.f64("slo_ms", 10.0, "latency objective for goodput", 1e-9,
               1e12);
  s.schema.u64("instances", 1, "concurrent model instances", 1, 64);
  s.schema.u64("seed", 1, "arrival/tenant/think stream seed");
  s.schema.str("trace_file", "",
               "arrival=trace: file of 'SECONDS [TENANT]' lines");
  s.schema.u64("concurrency", 8, "arrival=closed: in-flight sessions", 1,
               1'000'000);
  s.schema.f64("think_ms", 0.0, "arrival=closed: mean think time", 0.0,
               1e12);
  declare_nodes(s.schema, "active compute nodes (defaults to node_count)");
  s.schema.enumerant("fidelity", "analytic", {"analytic", "detailed"},
                     "batch cost oracle backend");
  s.schema.constrain("arrival=trace requires trace_file",
                     [](const exp::ParamSet& p) {
                       return p.str("arrival") != "trace" ||
                              !p.str("trace_file").empty();
                     });
  s.schema.constrain(
      "fidelity=detailed requires model=tiny and max_batch <= 128 (the "
      "detailed machine's dimension cap)",
      [](const exp::ParamSet& p) {
        return p.str("fidelity") != "detailed" ||
               (p.str("model") == "tiny" && p.u64("max_batch") <= 128);
      });
  s.cross_rules.push_back(nodes_fit_hardware_rule());
  s.cross_rules.push_back(backends_need_detail_rule());
  s.cross_rules.push_back(profile_needs_detailed_rule());
  s.run = [](const ScenarioRequest& request) {
    const exp::ParamSet& p = request.params;
    const serve::ServeModel model = serve::serve_model(
        p.str("model"), static_cast<unsigned>(p.u64("seq_len")));

    serve::ServeConfig config;
    config.arrival.rate_rps = p.f64("arrival_rate_rps");
    config.arrival.tenants = static_cast<unsigned>(p.u64("tenants"));
    config.arrival.requests = p.u64("requests");
    config.arrival.seed = p.u64("seed");
    const std::string& arrival = p.str("arrival");
    if (arrival == "closed") {
      config.closed_loop = true;
      config.concurrency = static_cast<unsigned>(p.u64("concurrency"));
      config.think_s = p.f64("think_ms") / 1e3;
    } else if (arrival == "trace") {
      config.arrival.kind = serve::ArrivalKind::kTrace;
      config.arrival.trace =
          serve::parse_trace(util::read_text_file(p.str("trace_file")));
    } else {
      config.arrival.kind = serve::parse_arrival_kind(arrival);
    }
    config.policy.max_batch = static_cast<unsigned>(p.u64("max_batch"));
    config.policy.timeout_ps = p.u64("batch_timeout_us") * sim::kPsPerUs;
    config.instances = static_cast<unsigned>(p.u64("instances"));
    config.slo_ms = p.f64("slo_ms");
    config.record_trace = request.collect_trace;

    serve::CostModelOptions cost_options;
    cost_options.nodes = active_nodes_from(request);
    cost_options.instances = config.instances;
    const auto cost =
        request.fidelity() == exp::Fidelity::kDetailed
            ? serve::make_detailed_cost_model(request.config, model,
                                              cost_options)
            : serve::make_analytic_cost_model(request.config, model,
                                              cost_options);
    const serve::ServeReport report = serve::serve(*cost, config);

    ScenarioResult result;
    result.add("completed", static_cast<double>(report.completed));
    result.add("batches", static_cast<double>(report.batches));
    result.add("mean_batch", report.mean_batch);
    result.add("duration_s", report.duration_s, "s",
               /*higher_is_better=*/false);
    result.add("offered_rps", report.offered_rps, "req/s");
    result.add("throughput_rps", report.throughput_rps, "req/s");
    result.add("goodput_rps", report.goodput_rps, "req/s");
    result.add("slo_attainment", report.slo_attainment);
    // Percentile/latency names: direction inferred (lower is better).
    result.add("latency_p50_ms", report.latency_ms.quantile(0.50), "ms");
    result.add("latency_p95_ms", report.latency_ms.quantile(0.95), "ms");
    result.add("latency_p99_ms", report.latency_ms.quantile(0.99), "ms");
    result.add("latency_p999_ms", report.latency_ms.quantile(0.999), "ms");
    result.add("latency_mean_ms", report.latency_ms.mean(), "ms");
    result.add("batching_mean_ms", report.batching_ms.mean(), "ms",
               /*higher_is_better=*/false);
    result.add("queueing_mean_ms", report.queueing_ms.mean(), "ms",
               /*higher_is_better=*/false);
    result.add("execution_mean_ms", report.execution_ms.mean(), "ms",
               /*higher_is_better=*/false);
    double worst_p95 = 0.0;
    for (const serve::TenantReport& tenant : report.tenants) {
      if (tenant.completed == 0) continue;
      worst_p95 = std::max(worst_p95, tenant.latency_ms.quantile(0.95));
    }
    result.add("worst_tenant_p95_ms", worst_p95, "ms");
    result.add("fairness", report.fairness);
    if (report.has_scheduler_stats) {
      core::OsStats os;
      os.present = true;
      os.context_switches = report.scheduler.context_switches;
      os.scheduling_rounds = report.scheduler.scheduling_rounds;
      os.tasks_completed = report.scheduler.tasks_completed;
      add_os_metrics(result, os);
    }
    const obs::RunObservation* measured = cost->observation();
    if (request.collect_trace || measured != nullptr) {
      obs::RunObservation observation;
      observation.want_counters = measured != nullptr;
      observation.want_trace = request.collect_trace;
      if (measured != nullptr) {
        // Counters and NoC traffic summed over every distinct batch-size
        // measurement the cost oracle ran on the detailed machine.
        observation.merge(*measured, 0);
      }
      // One track per model instance (executed batches) and per tenant
      // (request lifecycle: wait = arrival->seal, queue = seal->start,
      // exec = start->completion).
      for (const serve::ServeReport::BatchTrace& batch : report.batch_log) {
        observation.spans.push_back(obs::SpanRec{
            "instance" + std::to_string(batch.instance),
            "batch" + std::to_string(batch.seq) + " x" +
                std::to_string(batch.size),
            batch.exec_start_ps, batch.completion_ps});
      }
      for (const serve::Request& req : report.request_log) {
        const std::string track = "tenant" + std::to_string(req.tenant);
        const std::string id = "req" + std::to_string(req.id);
        observation.spans.push_back(obs::SpanRec{
            track, id + " wait", req.arrival_ps, req.batch_close_ps});
        observation.spans.push_back(obs::SpanRec{
            track, id + " queue", req.batch_close_ps, req.exec_start_ps});
        observation.spans.push_back(obs::SpanRec{
            track, id + " exec", req.exec_start_ps, req.completion_ps});
      }
      add_observation_outputs(request, observation, result);
    }
    return result;
  };
  return s;
}

Scenario graph_scenario() {
  Scenario s;
  s.name = "graph";
  s.description =
      "lower a model-manifest DNN graph (docs/GRAPHS.md) onto the machine";
  s.schema = timing_schema("fp32", /*default_cooperative=*/true,
                           {"analytic", "detailed", "sampled"});
  declare_graph_params(s.schema, "");
  s.cross_rules.push_back(nodes_fit_hardware_rule());
  s.cross_rules.push_back(backends_need_detail_rule());
  s.cross_rules.push_back(profile_needs_detailed_rule());
  s.run = [](const ScenarioRequest& request) {
    const exp::ParamSet& p = request.params;
    const graph::LoweredModel lowered = lower_graph_params(p);

    core::TimingOptions options = timing_options_from(request);
    // The manifest's precision wins unless the knob was set explicitly
    // (the schema default would otherwise override fp16 manifests).
    if (!p.was_set("precision")) {
      options.precision = lowered.workload.precision;
    }
    const auto backend = request.backend();
    obs::RunObservation observation;
    observation.want_counters =
        request.config.profile == core::ProfileMode::kCounters;
    observation.want_trace = request.collect_trace;
    const bool observe =
        observation.want_counters || observation.want_trace;
    const core::SystemTiming timing = backend->run_layers(
        lowered.workload.expanded_shapes(), options,
        observe ? &observation : nullptr);

    ScenarioResult result;
    result.add("batch", static_cast<double>(lowered.batch));
    result.add("seq_len", static_cast<double>(lowered.seq_len));
    result.add("tokens", static_cast<double>(lowered.tokens));
    result.add("graph_ops", static_cast<double>(lowered.ops.size()));
    result.add("lowered_layers",
               static_cast<double>(lowered.workload.layers.size()));
    result.add("total_gflop",
               static_cast<double>(lowered.total_flops()) / 1e9, "GFLOP");
    result.add("gb_moved",
               static_cast<double>(lowered.total_bytes) / 1e9, "GB");
    add_system_metrics(result, timing);
    // Per-op share of the lowered FLOPs, so report --compare shows which
    // op a regression concentrates in.
    for (const graph::OpContribution& op : lowered.ops) {
      result.add("op_flops_frac_" + metric_key(op.op), op.flops_frac);
    }
    add_observation_outputs(request, observation, result);
    return result;
  };
  return s;
}

}  // namespace

std::string fidelity_summary(const Scenario& scenario) {
  const exp::ParamDecl* fidelity = scenario.schema.find("fidelity");
  if (fidelity == nullptr) return "analytic (fixed)";
  std::string summary;
  for (const std::string& choice : fidelity->choices) {
    if (!summary.empty()) summary += "|";
    summary += choice;
  }
  return summary;
}

exp::Fidelity ScenarioRequest::fidelity() const {
  if (!params.has("fidelity")) return exp::Fidelity::kAnalytic;
  return exp::parse_fidelity(params.str("fidelity"));
}

std::unique_ptr<exp::ExecutionBackend> ScenarioRequest::backend() const {
  return exp::make_backend(fidelity(), config);
}

bool ScenarioRegistry::add(Scenario scenario) {
  if (find(scenario.name) != nullptr) return false;
  scenarios_.push_back(std::move(scenario));
  return true;
}

const Scenario* ScenarioRegistry::find(std::string_view name) const noexcept {
  for (const Scenario& scenario : scenarios_) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const Scenario& scenario : scenarios_) names.push_back(scenario.name);
  return names;
}

ScenarioRegistry ScenarioRegistry::builtin() {
  ScenarioRegistry registry;
  registry.add(gemm_scenario());
  registry.add(hpl_scenario());
  registry.add(baselines_scenario());
  registry.add(area_power_scenario());
  registry.add(sparsity_scenario());
  registry.add(tables_scenario());
  registry.add(micro_dram_scenario());
  registry.add(serve_scenario());
  registry.add(graph_scenario());
  return registry;
}

}  // namespace maco::driver

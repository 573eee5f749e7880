// The four benchmark workloads, each in measure, traced and check mode.
//
// Every simulated call goes through libmaco's public entry points with the
// options the corresponding `macosim` scenario builds from its defaults;
// check mode proves it by comparing against driver::run_sweep.
#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"
#include "core/compute_node.hpp"
#include "core/detailed_runner.hpp"
#include "core/maco_system.hpp"
#include "core/timing_model.hpp"
#include "driver/hardware_knobs.hpp"
#include "driver/scenario_registry.hpp"
#include "driver/sweep_runner.hpp"
#include "driver/trace_cmd.hpp"
#include "exp/backend.hpp"
#include "graph/builtin_models.hpp"
#include "graph/lowering.hpp"
#include "graph/model_graph.hpp"
#include "mmae/accelerator_controller.hpp"
#include "obs/collector.hpp"
#include "obs/host_profile.hpp"
#include "obs/trace_writer.hpp"
#include "os/scheduler.hpp"
#include "sa/host_matrix.hpp"
#include "sampling/sampled_runner.hpp"
#include "serve/cost_model.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace macobench {
namespace {

using namespace maco;

constexpr const char* kLlmModel = "gpt3-block";
constexpr std::uint64_t kSizes[] = {256, 512};
constexpr unsigned kNodeCounts[] = {1, 4, 16};

// The SystemConfig driver::run_sweep builds for a point with every
// hardware knob at its default.
core::SystemConfig default_config() {
  core::SystemConfig config = core::SystemConfig::maco_default();
  driver::apply_hardware_params(driver::hardware_schema().bind({}), config);
  return config;
}

std::string point_key(std::uint64_t size, unsigned nodes) {
  return std::to_string(size) + "x" + std::to_string(nodes);
}

double makespan_ms(sim::TimePs makespan_ps) {
  return static_cast<double>(makespan_ps) / 1e9;
}

// ---------------------------------------------------------------- graph

struct LlmPhase {
  std::string name;
  graph::LoweredModel lowered;
};

// The `graph` scenario's TimingOptions at its defaults: the manifest's
// precision, every node, cooperative.
core::TimingOptions graph_options(const graph::LoweredModel& lowered,
                                  const core::SystemConfig& config) {
  core::TimingOptions options;
  options.precision = lowered.workload.precision;
  options.active_nodes = config.node_count;
  options.cooperative = true;
  return options;
}

LlmPhase lower_phase(const std::string& phase, HostSpans* spans,
                     std::map<std::string, double>* layers) {
  graph::ModelGraph model;
  graph::LoweringOptions lowering;
  lowering.phase = graph::parse_phase(phase);
  LlmPhase result{phase, {}};
  if (spans == nullptr) {
    model = graph::parse_model_graph(graph::builtin_manifest(kLlmModel));
    result.lowered = graph::lower(model, lowering);
    return result;
  }
  (*layers)["graph.parse_s"] += spans->time("graph", "parse " + phase, [&] {
    model = graph::parse_model_graph(graph::builtin_manifest(kLlmModel));
  });
  (*layers)["graph.lower_s"] += spans->time("graph", "lower " + phase, [&] {
    result.lowered = graph::lower(model, lowering);
  });
  return result;
}

void record_llm_timing(const std::string& phase,
                       const core::SystemTiming& timing, Output& out) {
  out.sim[phase + ".makespan_ms"] = makespan_ms(timing.makespan_ps);
  out.sim[phase + ".gflops"] = timing.total_gflops;
}

// Set-up takes microseconds and is separable here, so it is repeated and
// the median kept; the first repetition is part of the timed run.
constexpr int kSetupRepeats = 51;

double median_of_setups(double first, const std::function<void()>& setup) {
  std::vector<double> samples = {first};
  for (int i = 1; i < kSetupRepeats; ++i) {
    const Stopwatch watch;
    setup();
    samples.push_back(watch.seconds());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

Output analytic_llm_measure(bool setup_only) {
  Output out;
  const core::SystemConfig config = default_config();
  const std::vector<std::string> phase_names = {"prefill", "decode"};
  std::vector<LlmPhase> phases;
  std::unique_ptr<exp::ExecutionBackend> backend;
  const auto setup = [&] {
    phases.clear();
    for (const std::string& name : phase_names) {
      phases.push_back(lower_phase(name, nullptr, nullptr));
    }
    backend = exp::make_backend(exp::Fidelity::kAnalytic, config);
  };

  const Stopwatch wall;
  setup();
  const double first_setup = wall.seconds();
  for (const LlmPhase& phase : phases) {
    if (setup_only) break;
    const std::vector<sa::TileShape> shapes =
        phase.lowered.workload.expanded_shapes();
    out.attempted += shapes.size();
    try {
      record_llm_timing(phase.name,
                        backend->run_layers(
                            shapes, graph_options(phase.lowered, config)),
                        out);
    } catch (const std::exception& error) {
      out.fail(shapes.size(), phase.name + ": " + error.what());
    }
  }
  out.wall_s = wall.seconds();
  out.setup_s = median_of_setups(first_setup, setup);
  return out;
}

// SystemTimingModel::run_layers decomposed into its per-layer run calls,
// aggregated the way run_layers does so the results stay bit-identical.
Output analytic_llm_traced(HostSpans& spans) {
  Output out;
  out.layers = empty_layers();
  std::map<std::string, double>& layers = out.layers;
  const core::SystemConfig config = default_config();
  const core::SystemTimingModel model(config);
  std::vector<double> call_ms;
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, int>>
      seen;

  const Stopwatch wall;
  for (const std::string name : {"prefill", "decode"}) {
    const LlmPhase phase = lower_phase(name, &spans, &layers);
    const std::vector<sa::TileShape> shapes =
        phase.lowered.workload.expanded_shapes();
    core::TimingOptions options = graph_options(phase.lowered, config);
    out.attempted += shapes.size();
    layers["graph.layer_evals"] += static_cast<double>(shapes.size());
    try {
      double total_ps = 0.0;
      double total_flops = 0.0;
      for (const sa::TileShape& shape : shapes) {
        options.shape = shape;
        core::SystemTiming timing;
        const double seconds = spans.time(
            "timing_model", name + " layer",
            [&] { timing = model.run(options); });
        call_ms.push_back(seconds * 1e3);
        layers["timing_model.run_s"] += seconds;
        seen.emplace(shape.m, shape.n, shape.k,
                     static_cast<int>(options.precision));
        total_ps += static_cast<double>(timing.makespan_ps);
        total_flops += 2.0 * static_cast<double>(shape.macs());
      }
      core::SystemTiming aggregate;
      aggregate.makespan_ps = static_cast<sim::TimePs>(total_ps);
      aggregate.total_gflops = total_flops / (total_ps * 1e-12) / 1e9;
      record_llm_timing(name, aggregate, out);
    } catch (const std::exception& error) {
      out.fail(shapes.size(), name + std::string(": ") + error.what());
    }
  }
  out.wall_s = wall.seconds();
  const double calls = static_cast<double>(call_ms.size());
  layers["timing_model.calls"] = calls;
  layers["timing_model.repeat_frac"] =
      calls > 0.0 ? (calls - static_cast<double>(seen.size())) / calls : 0.0;
  layers["timing_model.call_ms_p50"] = percentile(call_ms, 0.50);
  layers["timing_model.call_ms_p99"] = percentile(call_ms, 0.99);
  return out;
}

// ----------------------------------------------------------- run_sweep

using SweepKey =
    std::function<std::string(const std::map<std::string, std::string>&)>;

// Runs the scenario through the `macosim` driver and files each row's
// `metrics` under `key(row params) + metric`.
void sweep_into(Output& out, const std::string& scenario,
                const std::map<std::string, std::string>& params,
                const std::vector<driver::SweepAxis>& axes,
                const std::vector<std::string>& metrics,
                const SweepKey& key) {
  driver::SweepRequest request;
  request.scenario = scenario;
  request.base_params = params;
  request.axes = axes;
  request.threads = 4;
  const driver::SweepResults results =
      driver::run_sweep(driver::ScenarioRegistry::builtin(), request);
  for (const driver::SweepRow& row : results.rows) {
    if (!row.ok()) {
      out.errors.push_back("run_sweep " + scenario + ": " + row.error);
      continue;
    }
    for (const exp::Metric& metric : row.result.metrics) {
      if (std::find(metrics.begin(), metrics.end(), metric.name) !=
          metrics.end()) {
        out.sweep[key(row.params) + metric.name] = metric.value;
      }
    }
  }
}

Output analytic_llm_check() {
  Output out;
  sweep_into(out, "graph", {{"model_file", kLlmModel}},
             {{"phase", {"prefill", "decode"}}}, {"makespan_ms", "gflops"},
             [](const auto& params) { return params.at("phase") + "."; });
  return out;
}

// ------------------------------------------------------------- detailed

// The `gemm` scenario's TimingOptions at its defaults (fp64, independent).
core::TimingOptions gemm_options(std::uint64_t size, unsigned nodes) {
  core::TimingOptions options;
  options.shape = sa::TileShape{size, size, size};
  options.precision = sa::Precision::kFp64;
  options.active_nodes = nodes;
  options.cooperative = false;
  return options;
}

void record_point(const std::string& fidelity, const std::string& point,
                  sim::TimePs makespan_ps, double gflops, Output& out) {
  out.sim[fidelity + "." + point + ".makespan_ms"] = makespan_ms(makespan_ps);
  out.sim[fidelity + "." + point + ".gflops"] = gflops;
}

void record_fidelity_gap(Output& out) {
  double gap = 0.0;
  for (const std::uint64_t size : kSizes) {
    for (const unsigned nodes : kNodeCounts) {
      const std::string point = point_key(size, nodes);
      const auto detailed = out.sim.find("detailed." + point + ".gflops");
      const auto analytic = out.sim.find("analytic." + point + ".gflops");
      if (detailed == out.sim.end() || analytic == out.sim.end()) continue;
      gap = std::max(gap, std::abs(detailed->second / analytic->second - 1.0));
    }
  }
  out.sim["fidelity_gap"] = gap;
}

Output detailed_scaling_measure() {
  Output out;
  const core::SystemConfig config = default_config();
  const Stopwatch wall;
  const auto detailed = exp::make_backend(exp::Fidelity::kDetailed, config);
  const auto analytic = exp::make_backend(exp::Fidelity::kAnalytic, config);
  double setup_ms = 0.0;
  for (const std::uint64_t size : kSizes) {
    for (const unsigned nodes : kNodeCounts) {
      const std::string point = point_key(size, nodes);
      const core::TimingOptions options = gemm_options(size, nodes);
      ++out.attempted;
      try {
        obs::HostPhaseProfile phases;
        core::SystemTiming timing;
        {
          obs::ScopedHostProfile guard(&phases);
          timing = detailed->run(options);
        }
        setup_ms += phases.ms("setup");
        if (timing.os.tasks_completed != nodes || timing.makespan_ps == 0) {
          throw std::runtime_error("incomplete detailed run");
        }
        record_point("detailed", point, timing.makespan_ps,
                     timing.total_gflops, out);
        const core::SystemTiming closed = analytic->run(options);
        record_point("analytic", point, closed.makespan_ps,
                     closed.total_gflops, out);
      } catch (const std::exception& error) {
        out.fail(1, point + ": " + error.what());
      }
    }
  }
  out.wall_s = wall.seconds();
  out.setup_s = setup_ms / 1e3;
  record_fidelity_gap(out);
  return out;
}

// C read back equals the host A·B within FP64 rounding (a NaN fails).
bool product_matches(const sa::HostMatrix& a, const sa::HostMatrix& b,
                     const sa::HostMatrix& c) {
  sa::HostMatrix expected(a.rows(), b.cols());
  sa::reference_gemm(a, b, expected);
  const double tolerance = 1e-9 * static_cast<double>(a.cols());
  for (std::size_t i = 0; i < c.data().size(); ++i) {
    if (!(std::abs(c.data()[i] - expected.data()[i]) <= tolerance)) {
      return false;
    }
  }
  return true;
}

// One node's operands and result, read back for the host A·B check that
// runs after the timed region.
struct Readback {
  std::string point;
  sa::HostMatrix a;
  sa::HostMatrix b;
  sa::HostMatrix c;
};

struct DetailedTotals {
  double spans_ps = 0.0;      // Σ node task spans
  double capacity_ps = 0.0;   // Σ nodes × makespan
  double sa_busy_ps = 0.0;
  double stall_ps = 0.0;
  obs::RunObservation counters;
  std::vector<Readback> readbacks;
};

// run_detailed_gemm decomposed into the calls it makes: MacoSystem
// construction, build_detailed_gemm_task per node, os::Scheduler::run_all,
// then readback of one node's operands. The makespan and throughput are
// condensed exactly as run_detailed_gemm does, so they must match the
// measure run bit for bit.
void detailed_point_traced(std::uint64_t size, unsigned nodes,
                           const core::SystemConfig& base, HostSpans& spans,
                           DetailedTotals& totals, Output& out) {
  std::map<std::string, double>& layers = out.layers;
  const std::string point = point_key(size, nodes);
  const core::TimingOptions options = gemm_options(size, nodes);
  core::SystemConfig config = base;
  config.profile = core::ProfileMode::kCounters;
  config.node_count = std::max(1u, std::min(nodes, base.node_count));
  config.mmae.use_matlb = options.use_matlb;

  std::unique_ptr<core::MacoSystem> system;
  layers["machine.construct_s"] += spans.time("machine", "construct " + point,
      [&] { system = std::make_unique<core::MacoSystem>(config); });
  os::Scheduler::Options sched_options;
  sched_options.nodes = system->node_count();
  os::Scheduler scheduler(*system, sched_options);
  std::vector<core::Process*> processes;
  std::vector<isa::GemmParams> params;
  layers["machine.operand_setup_s"] += spans.time("machine",
      "operands " + point, [&] {
        for (unsigned n = 0; n < system->node_count(); ++n) {
          core::Process& process = system->create_process();
          os::Job& job = scheduler.add_job(process);
          params.push_back(core::build_detailed_gemm_task(
              *system, process, options.shape, options, 0, 0, 0, n));
          job.tasks.push_back(os::GemmTask{params.back()});
          processes.push_back(&process);
        }
      });
  layers["machine.operand_bytes"] +=
      static_cast<double>(system->node_count()) * 3.0 *
      static_cast<double>(size * size * sizeof(double));

  os::SchedulerStats stats;
  const double run_s = spans.time("os", "run_all " + point,
                                  [&] { stats = scheduler.run_all(); });
  layers["os.run_all_s"] += run_s;
  layers["os.context_switches"] += static_cast<double>(stats.context_switches);
  layers["os.scheduling_rounds"] +=
      static_cast<double>(stats.scheduling_rounds);
  if (stats.tasks_failed > 0) {
    throw std::runtime_error(std::to_string(stats.tasks_failed) +
                             " task(s) failed");
  }

  sim::TimePs makespan = 0;
  std::uint64_t total_macs = 0;
  double point_spans = 0.0;
  for (unsigned n = 0; n < system->node_count(); ++n) {
    const mmae::TaskReport* completed = nullptr;
    for (const mmae::TaskReport& report : system->node(n).mmae().reports()) {
      if (report.exception == cpu::ExceptionType::kNone) completed = &report;
    }
    if (completed == nullptr) {
      throw std::runtime_error("node " + std::to_string(n) +
                               " completed no task");
    }
    makespan = std::max(makespan, completed->end);
    total_macs += completed->macs;
    point_spans += static_cast<double>(completed->end - completed->start);
    totals.sa_busy_ps += static_cast<double>(completed->sa_busy_ps);
    totals.stall_ps += static_cast<double>(completed->translation_stall_ps);
  }
  totals.spans_ps += point_spans;
  totals.capacity_ps += static_cast<double>(system->node_count()) *
                        static_cast<double>(makespan);
  const double makespan_s = sim::to_seconds(makespan);
  const double gflops =
      makespan_s > 0.0
          ? 2.0 * static_cast<double>(total_macs) / makespan_s / 1e9
          : 0.0;
  record_point("detailed", point, makespan, gflops, out);

  // Readback of the first process's operands and result.
  const isa::GemmParams& gemm = params.front();
  const auto desc = [](std::uint64_t base, std::uint64_t rows,
                       std::uint64_t cols) {
    vm::MatrixDesc d;
    d.base = base;
    d.rows = rows;
    d.cols = cols;
    d.elem_bytes = sizeof(double);
    return d;
  };
  sa::HostMatrix a;
  sa::HostMatrix b;
  sa::HostMatrix c;
  core::Process& process = *processes.front();
  layers["machine.readback_s"] += spans.time("machine", "readback " + point,
      [&] {
        a = system->read_matrix(process, desc(gemm.a_base, gemm.m, gemm.k));
        b = system->read_matrix(process, desc(gemm.b_base, gemm.k, gemm.n));
        c = system->read_matrix(process, desc(gemm.c_base, gemm.m, gemm.n));
      });
  totals.readbacks.push_back(Readback{point, std::move(a), std::move(b),
                                      std::move(c)});

  obs::RunObservation observation;
  obs::collect(*system, observation);
  totals.counters.merge(observation, 0);
}

Output detailed_scaling_traced(HostSpans& spans) {
  Output out;
  out.layers = empty_layers();
  std::map<std::string, double>& layers = out.layers;
  const core::SystemConfig config = default_config();
  const core::SystemTimingModel model(config);
  DetailedTotals totals;
  std::vector<double> call_ms;

  const Stopwatch wall;
  for (const std::uint64_t size : kSizes) {
    for (const unsigned nodes : kNodeCounts) {
      const std::string point = point_key(size, nodes);
      ++out.attempted;
      try {
        detailed_point_traced(size, nodes, config, spans, totals, out);
        core::SystemTiming closed;
        const double seconds = spans.time("timing_model", "run " + point,
            [&] { closed = model.run(gemm_options(size, nodes)); });
        call_ms.push_back(seconds * 1e3);
        layers["timing_model.run_s"] += seconds;
        record_point("analytic", point, closed.makespan_ps,
                     closed.total_gflops, out);
      } catch (const std::exception& error) {
        out.fail(1, point + ": " + error.what());
      }
    }
  }
  out.wall_s = wall.seconds();
  record_fidelity_gap(out);
  for (const Readback& readback : totals.readbacks) {
    if (!product_matches(readback.a, readback.b, readback.c)) {
      out.fail(1, readback.point + ": C read back differs from the host A·B");
    }
  }

  add_counter_layers(totals.counters, layers);
  const double events = layers["engine.events"];
  layers["engine.host_ns_per_event"] =
      events > 0.0 ? layers["os.run_all_s"] * 1e9 / events : 0.0;
  layers["timing_model.calls"] = static_cast<double>(call_ms.size());
  layers["timing_model.call_ms_p50"] = percentile(call_ms, 0.50);
  layers["timing_model.call_ms_p99"] = percentile(call_ms, 0.99);
  if (totals.capacity_ps > 0.0) {
    layers["mmae.node_concurrency"] = totals.spans_ps / totals.capacity_ps;
  }
  if (totals.spans_ps > 0.0) {
    layers["mmae.sa_busy_frac"] = totals.sa_busy_ps / totals.spans_ps;
    layers["mmae.translation_stall_frac"] = totals.stall_ps / totals.spans_ps;
  }
  return out;
}

Output detailed_scaling_check(HostSpans& spans) {
  Output out = detailed_scaling_traced(spans);
  std::vector<std::string> sizes;
  std::vector<std::string> nodes;
  for (const std::uint64_t size : kSizes) sizes.push_back(std::to_string(size));
  for (const unsigned n : kNodeCounts) nodes.push_back(std::to_string(n));
  sweep_into(out, "gemm", {},
             {{"fidelity", {"analytic", "detailed"}},
              {"size", sizes},
              {"nodes", nodes}},
             {"makespan_ms", "gflops"}, [](const auto& params) {
               return params.at("fidelity") + "." + params.at("size") + "x" +
                      params.at("nodes") + ".";
             });
  return out;
}

// -------------------------------------------------------------- sampled

void record_sampled(const core::SystemTiming& timing, Output& out) {
  out.sim["decode.makespan_ms"] = makespan_ms(timing.makespan_ps);
  out.sim["decode.makespan_ms_ci95"] = timing.sampling.makespan_ci95_ps / 1e9;
  out.sim["decode.gflops"] = timing.total_gflops;
  out.sim["decode.sampled_tiles"] =
      static_cast<double>(timing.sampling.sampled_tiles);
  out.sim["decode.total_tiles"] =
      static_cast<double>(timing.sampling.total_tiles);
  const double ci95_rel =
      timing.sampling.rel_ci95(static_cast<double>(timing.makespan_ps));
  out.sim["ci95_rel"] = ci95_rel;
  if (timing.sampling.sampled_tiles == 0 || !std::isfinite(ci95_rel)) {
    out.fail(1, "sampled estimate has no tiles or a non-finite CI");
  }
}

core::TimingOptions sampled_options(const graph::LoweredModel& lowered,
                                    const core::SystemConfig& config,
                                    const Inputs& inputs) {
  core::TimingOptions options = graph_options(lowered, config);
  options.sample_seed = inputs.sample_seed;
  return options;
}

Output sampled_llm_measure(const Inputs& inputs, bool setup_only) {
  Output out;
  const core::SystemConfig config = default_config();
  LlmPhase phase;
  std::unique_ptr<exp::ExecutionBackend> backend;
  const auto setup = [&] {
    phase = lower_phase("decode", nullptr, nullptr);
    backend = exp::make_backend(exp::Fidelity::kSampled, config);
  };
  const Stopwatch wall;
  setup();
  const double first_setup = wall.seconds();
  if (!setup_only) {
    out.attempted = 1;
    try {
      record_sampled(
          backend->run_layers(phase.lowered.workload.expanded_shapes(),
                              sampled_options(phase.lowered, config, inputs)),
          out);
    } catch (const std::exception& error) {
      out.fail(1, error.what());
    }
  }
  out.wall_s = wall.seconds();
  out.setup_s = median_of_setups(first_setup, setup);
  return out;
}

Output sampled_llm_traced(const Inputs& inputs, HostSpans& spans) {
  Output out;
  out.layers = empty_layers();
  std::map<std::string, double>& layers = out.layers;
  const core::SystemConfig config = default_config();
  const Stopwatch wall;
  const LlmPhase phase = lower_phase("decode", &spans, &layers);
  const std::vector<sa::TileShape> shapes =
      phase.lowered.workload.expanded_shapes();
  layers["graph.layer_evals"] = static_cast<double>(shapes.size());
  out.attempted = 1;
  try {
    core::SystemTiming timing;
    layers["sampling.run_s"] = spans.time("sampling", "run_sampled_layers",
        [&] {
          timing = sampling::run_sampled_layers(
              config, shapes, sampled_options(phase.lowered, config, inputs));
        });
    record_sampled(timing, out);
    const double tiles = static_cast<double>(timing.sampling.sampled_tiles);
    layers["sampling.sampled_tiles"] = tiles;
    layers["sampling.total_tiles"] =
        static_cast<double>(timing.sampling.total_tiles);
    layers["sampling.strata"] = static_cast<double>(timing.sampling.strata);
    layers["sampling.host_ms_per_tile"] =
        tiles > 0.0 ? layers["sampling.run_s"] * 1e3 / tiles : 0.0;
  } catch (const std::exception& error) {
    out.fail(1, error.what());
  }
  out.wall_s = wall.seconds();
  return out;
}

Output sampled_llm_check(const Inputs& inputs) {
  Output out;
  sweep_into(out, "graph",
             {{"model_file", kLlmModel},
              {"phase", "decode"},
              {"fidelity", "sampled"},
              {"sample_seed", std::to_string(inputs.sample_seed)},
              // Host threads only: estimates are bit-identical across
              // worker counts, and the check takes half the time.
              {"sample_workers", "2"}},
             {}, {"makespan_ms", "makespan_ms_ci95", "gflops"},
             [](const auto&) { return std::string("decode."); });
  return out;
}

// ---------------------------------------------------------------- serve

// The `serve` scenario at fidelity=detailed, model=tiny, instances=2 with
// every other knob at its default.
constexpr unsigned kServeInstances = 2;

serve::ServeConfig serve_config(const Inputs& inputs) {
  serve::ServeConfig config;
  config.arrival.kind = serve::ArrivalKind::kPoisson;
  config.arrival.rate_rps = 200.0;
  config.arrival.tenants = 2;
  config.arrival.requests = inputs.requests;
  config.arrival.seed = inputs.serve_seed;
  config.policy.max_batch = 8;
  config.policy.timeout_ps = 200 * sim::kPsPerUs;
  config.instances = kServeInstances;
  config.slo_ms = 10.0;
  return config;
}

serve::CostModelOptions serve_cost_options(const core::SystemConfig& config) {
  serve::CostModelOptions options;
  options.nodes = config.node_count;
  options.instances = kServeInstances;
  return options;
}

void record_serve(const serve::ServeReport& report, const Inputs& inputs,
                  Output& out) {
  out.attempted = inputs.requests;
  out.sim["completed"] = static_cast<double>(report.completed);
  out.sim["batches"] = static_cast<double>(report.batches);
  out.sim["duration_s"] = report.duration_s;
  out.sim["throughput_rps"] = report.throughput_rps;
  out.sim["latency_p50_ms"] = report.latency_ms.quantile(0.50);
  out.sim["latency_p99_ms"] = report.latency_ms.quantile(0.99);
  if (report.completed != inputs.requests) {
    out.fail(inputs.requests - std::min(inputs.requests, report.completed),
             "serve completed " + std::to_string(report.completed) + " of " +
                 std::to_string(inputs.requests) + " requests");
  }
}

Output serve_stream_measure(const Inputs& inputs) {
  Output out;
  const core::SystemConfig config = default_config();
  const serve::ServeModel model = serve::serve_model("tiny", 384);
  const serve::ServeConfig serve_cfg = serve_config(inputs);
  try {
    // serve() builds its arrival schedule internally; the same build,
    // timed on its own before the run, stands for that part of set-up.
    const Stopwatch schedule;
    (void)serve::LoadGenerator(serve_cfg.arrival).schedule();
    const double schedule_s = schedule.seconds();

    const Stopwatch wall;
    const auto cost = serve::make_detailed_cost_model(
        config, model, serve_cost_options(config));
    const double construct_s = wall.seconds();
    const serve::ServeReport report = serve::serve(*cost, serve_cfg);
    out.wall_s = wall.seconds();
    out.setup_s = schedule_s + construct_s;
    record_serve(report, inputs, out);
  } catch (const std::exception& error) {
    out.attempted = inputs.requests;
    out.fail(inputs.requests, error.what());
  }
  return out;
}

// Times every oracle call the serve loop makes, through the public
// BatchCostModel interface.
class TimedCostModel final : public serve::BatchCostModel {
 public:
  explicit TimedCostModel(std::unique_ptr<serve::BatchCostModel> inner)
      : inner_(std::move(inner)) {}

  sim::TimePs batch_makespan_ps(unsigned batch) override {
    const Stopwatch watch;
    const sim::TimePs makespan = inner_->batch_makespan_ps(batch);
    seconds_ += watch.seconds();
    ++calls_;
    distinct_.insert(batch);
    return makespan;
  }
  const os::SchedulerStats* scheduler_stats() const noexcept override {
    return inner_->scheduler_stats();
  }
  const obs::RunObservation* observation() const noexcept override {
    return inner_->observation();
  }

  double seconds() const noexcept { return seconds_; }
  std::uint64_t calls() const noexcept { return calls_; }
  std::size_t distinct() const noexcept { return distinct_.size(); }

 private:
  std::unique_ptr<serve::BatchCostModel> inner_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
  std::set<unsigned> distinct_;
};

Output serve_stream_traced(const Inputs& inputs, HostSpans& spans) {
  Output out;
  out.layers = empty_layers();
  std::map<std::string, double>& layers = out.layers;
  core::SystemConfig config = default_config();
  config.profile = core::ProfileMode::kCounters;
  const serve::ServeModel model = serve::serve_model("tiny", 384);
  const serve::ServeConfig serve_cfg = serve_config(inputs);
  try {
    layers["serve.schedule_s"] = spans.time("serve", "schedule", [&] {
      (void)serve::LoadGenerator(serve_cfg.arrival).schedule();
    });
    const Stopwatch wall;
    std::unique_ptr<TimedCostModel> cost;
    spans.time("serve", "cost model", [&] {
      cost = std::make_unique<TimedCostModel>(serve::make_detailed_cost_model(
          config, model, serve_cost_options(config)));
    });
    serve::ServeReport report;
    const double serve_s = spans.time(
        "serve", "serve", [&] { report = serve::serve(*cost, serve_cfg); });
    out.wall_s = wall.seconds();
    record_serve(report, inputs, out);

    layers["serve.oracle_s"] = cost->seconds();
    layers["serve.oracle_calls"] = static_cast<double>(cost->calls());
    layers["serve.oracle_distinct"] = static_cast<double>(cost->distinct());
    layers["serve.loop_s"] = serve_s - cost->seconds();
    layers["serve.host_ns_per_request"] =
        serve_s * 1e9 / static_cast<double>(inputs.requests);
    layers["os.context_switches"] =
        static_cast<double>(report.scheduler.context_switches);
    layers["os.scheduling_rounds"] =
        static_cast<double>(report.scheduler.scheduling_rounds);
    if (const obs::RunObservation* observed = cost->observation()) {
      add_counter_layers(*observed, layers);
      const double events = layers["engine.events"];
      layers["engine.host_ns_per_event"] =
          events > 0.0 ? cost->seconds() * 1e9 / events : 0.0;
    }
  } catch (const std::exception& error) {
    out.attempted = inputs.requests;
    out.fail(inputs.requests, error.what());
  }
  return out;
}

Output serve_stream_check(const Inputs& inputs) {
  Output out;
  sweep_into(out, "serve",
             {{"fidelity", "detailed"},
              {"model", "tiny"},
              {"instances", std::to_string(kServeInstances)},
              {"requests", std::to_string(inputs.requests)},
              {"seed", std::to_string(inputs.serve_seed)}},
             {},
             {"completed", "batches", "duration_s", "throughput_rps",
              "latency_p50_ms", "latency_p99_ms"},
             [](const auto&) { return std::string(); });
  return out;
}

// --------------------------------------------------------------- output

// Writes the traced run's host spans and renders them back through the
// `macosim trace` renderer, so a file that does not render fails the run.
void write_trace(const HostSpans& spans, const std::string& path,
                 Output& out) {
  obs::RunObservation observation;
  observation.spans = spans.spans();
  const std::string json = obs::to_perfetto_json(observation);
  std::ofstream file(path);
  file << json;
  file.close();
  if (!file) {
    out.errors.push_back("cannot write trace file " + path);
    return;
  }
  if (driver::render_trace(json, 100).gantt.empty()) {
    out.errors.push_back("trace file " + path + " renders no spans");
    return;
  }
  out.trace_file = path;
}

Output dispatch(const std::string& workload, Mode mode, const Inputs& inputs,
                HostSpans& spans) {
  const bool setup_only = mode == Mode::kSetup;
  if (workload == "analytic_llm") {
    if (mode == Mode::kTraced) return analytic_llm_traced(spans);
    if (mode == Mode::kCheck) return analytic_llm_check();
    return analytic_llm_measure(setup_only);
  }
  if (workload == "sampled_llm") {
    if (mode == Mode::kTraced) return sampled_llm_traced(inputs, spans);
    if (mode == Mode::kCheck) return sampled_llm_check(inputs);
    return sampled_llm_measure(inputs, setup_only);
  }
  if (setup_only) {
    throw std::invalid_argument(workload + " has no set-up-only mode");
  }
  if (workload == "detailed_scaling") {
    if (mode == Mode::kTraced) return detailed_scaling_traced(spans);
    if (mode == Mode::kCheck) return detailed_scaling_check(spans);
    return detailed_scaling_measure();
  }
  if (workload == "serve_stream") {
    if (mode == Mode::kTraced) return serve_stream_traced(inputs, spans);
    if (mode == Mode::kCheck) return serve_stream_check(inputs);
    return serve_stream_measure(inputs);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace

Output run_workload(const std::string& workload, Mode mode,
                    const Inputs& inputs, const std::string& trace_path) {
  HostSpans spans;
  Output out;
  try {
    out = dispatch(workload, mode, inputs, spans);
  } catch (const std::exception& error) {
    out.errors.push_back(error.what());
  }
  if (!trace_path.empty() && !spans.spans().empty()) {
    write_trace(spans, trace_path, out);
  }
  return out;
}

}  // namespace macobench

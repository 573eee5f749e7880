#include "serve/cost_model.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "core/detailed_runner.hpp"
#include "core/timing_model.hpp"
#include "obs/collector.hpp"
#include "obs/host_profile.hpp"

namespace maco::serve {
namespace {

unsigned nodes_per_instance(const CostModelOptions& options) {
  if (options.instances == 0) {
    throw std::invalid_argument("cost model needs >= 1 model instance");
  }
  if (options.instances > options.nodes) {
    throw std::invalid_argument(
        "instances " + std::to_string(options.instances) +
        " exceed the " + std::to_string(options.nodes) +
        " active nodes (each instance needs at least one node)");
  }
  return std::max(1u, options.nodes / options.instances);
}

class AnalyticCostModel final : public BatchCostModel {
 public:
  AnalyticCostModel(const core::SystemConfig& config, ServeModel model,
                    const CostModelOptions& options)
      : model_(std::move(model)), timing_model_(config) {
    options_.precision = model_.precision;
    options_.active_nodes = nodes_per_instance(options);
    options_.cooperative = options_.active_nodes > 1;
    options_.tile_rows = options.tile;
    options_.tile_cols = options.tile;
    options_.inner = options.inner;
  }

  sim::TimePs batch_makespan_ps(unsigned batch) override {
    const auto cached = memo_.find(batch);
    if (cached != memo_.end()) return cached->second;
    const core::SystemTiming timing =
        timing_model_.run_layers(model_.layers(batch), options_);
    memo_.emplace(batch, timing.makespan_ps);
    return timing.makespan_ps;
  }

 private:
  ServeModel model_;
  core::SystemTimingModel timing_model_;
  core::TimingOptions options_;
  std::map<unsigned, sim::TimePs> memo_;
};

class DetailedCostModel final : public BatchCostModel {
 public:
  DetailedCostModel(const core::SystemConfig& config, ServeModel model,
                    const CostModelOptions& options)
      : config_(config), model_(std::move(model)), options_(options) {
    (void)nodes_per_instance(options);  // validates instances vs nodes
    config_.node_count = std::min(options.nodes, config.node_count);
  }

  sim::TimePs batch_makespan_ps(unsigned batch) override {
    const auto cached = memo_.find(batch);
    if (cached != memo_.end()) return cached->second;
    const sim::TimePs makespan = measure(batch);
    memo_.emplace(batch, makespan);
    return makespan;
  }

  const os::SchedulerStats* scheduler_stats() const noexcept override {
    return &stats_;
  }

  const obs::RunObservation* observation() const noexcept override {
    return config_.profile == core::ProfileMode::kCounters ? &observation_
                                                           : nullptr;
  }

 private:
  sim::TimePs measure(unsigned batch) {
    const std::vector<sa::TileShape> layers = model_.layers(batch);
    for (const sa::TileShape& layer : layers) {
      const std::uint64_t largest = std::max({layer.m, layer.n, layer.k});
      if (largest > core::kDetailedMaxDim) {
        throw std::invalid_argument(
            "serve fidelity=detailed: model '" + model_.name +
            "' at batch " + std::to_string(batch) + " has a " +
            std::to_string(layer.m) + "x" + std::to_string(layer.n) + "x" +
            std::to_string(layer.k) + " layer exceeding the detailed " +
            "machine's " + std::to_string(core::kDetailedMaxDim) +
            "-per-dimension cap; lower max_batch, or use model=tiny or "
            "fidelity=analytic");
      }
    }

    // A fresh system per distinct batch size: engine time starts at zero,
    // so the scheduler-driven makespan IS the batch cost. All instances
    // co-run as separate processes — the measurement bakes in the
    // multi-process contention a loaded server would see.
    core::TimingOptions task_options;
    task_options.precision = model_.precision;
    task_options.use_matlb = config_.mmae.use_matlb;
    task_options.tile_rows = options_.tile;
    task_options.tile_cols = options_.tile;
    task_options.inner = options_.inner;
    core::DetailedJob job;
    for (const sa::TileShape& layer : layers) {
      job.tasks.push_back(core::DetailedTask{layer});
    }
    const core::DetailedRun run = core::run_detailed_jobs(
        config_, task_options, config_.node_count,
        std::vector<core::DetailedJob>(options_.instances, job), "detailed");
    obs::ScopedPhase collect_phase("collect");
    accumulate(run.stats);
    if (config_.profile == core::ProfileMode::kCounters) {
      observation_.want_counters = true;
      obs::collect(*run.system, observation_);
    }
    return run.system->engine().now();
  }

  void accumulate(const os::SchedulerStats& run) noexcept {
    stats_.context_switches += run.context_switches;
    stats_.tasks_completed += run.tasks_completed;
    stats_.tasks_failed += run.tasks_failed;
    stats_.faults_repaired += run.faults_repaired;
    stats_.pages_mapped += run.pages_mapped;
    stats_.mtq_full_backoffs += run.mtq_full_backoffs;
    stats_.scheduling_rounds += run.scheduling_rounds;
  }

  core::SystemConfig config_;
  ServeModel model_;
  CostModelOptions options_;
  os::SchedulerStats stats_;
  obs::RunObservation observation_;  // counters summed over measurements
  std::map<unsigned, sim::TimePs> memo_;
};

}  // namespace

std::unique_ptr<BatchCostModel> make_analytic_cost_model(
    const core::SystemConfig& config, const ServeModel& model,
    const CostModelOptions& options) {
  return std::make_unique<AnalyticCostModel>(config, model, options);
}

std::unique_ptr<BatchCostModel> make_detailed_cost_model(
    const core::SystemConfig& config, const ServeModel& model,
    const CostModelOptions& options) {
  return std::make_unique<DetailedCostModel>(config, model, options);
}

}  // namespace maco::serve

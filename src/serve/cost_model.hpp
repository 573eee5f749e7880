// Batch execution-cost oracles for the serve loop.
//
// The serving simulation separates WHEN work happens (serve::Server's
// event loop in virtual time) from HOW LONG work takes (this oracle). A
// BatchCostModel answers one question — the makespan of an admitted batch
// of B requests of the served model — and because a serve stream asks it
// for the same handful of batch sizes millions of times, implementations
// memoize by batch size: a million-request stream costs a few machine
// evaluations plus O(1) per request.
//
// Two rungs mirror the fidelity ladder:
//  * analytic — core::SystemTimingModel::run_layers on the model's GEMM
//    list, each instance owning an equal static share of the active nodes
//    (paper-scale models, microseconds per distinct batch size);
//  * detailed — the batch's GEMM task list executed on a real MacoSystem
//    through os::Scheduler, one process per concurrent model instance so
//    co-resident instances contend for MTQ/NoC/CCM/DRAM exactly as the
//    multi-process machinery of Section III.C does. The measured makespan
//    is charged in engine virtual time, and the scheduler's own counters
//    (context switches, MTQ backoffs, scheduling rounds) accumulate for
//    the serve report.
#pragma once

#include <memory>

#include "core/config.hpp"
#include "obs/observation.hpp"
#include "os/scheduler.hpp"
#include "serve/workload.hpp"
#include "sim/time.hpp"

namespace maco::serve {

class BatchCostModel {
 public:
  virtual ~BatchCostModel() = default;

  // Makespan of one admitted batch of `batch` requests, in simulated ps.
  // Deterministic: equal batch sizes return equal makespans.
  virtual sim::TimePs batch_makespan_ps(unsigned batch) = 0;

  // Scheduler counters accumulated over every measurement so far; nullptr
  // when the model does not run through os::Scheduler (analytic).
  virtual const os::SchedulerStats* scheduler_stats() const noexcept {
    return nullptr;
  }

  // Hardware counters and NoC traffic accumulated over every measurement
  // so far; nullptr unless the model runs a detailed machine with
  // config.profile=counters.
  virtual const obs::RunObservation* observation() const noexcept {
    return nullptr;
  }
};

struct CostModelOptions {
  unsigned nodes = 16;     // active compute nodes shared by all instances
  unsigned instances = 1;  // concurrent model instances (>= 1)
};

// Each instance runs the model cooperatively on nodes/instances nodes
// (at least 1). Throws std::invalid_argument on instances > nodes.
std::unique_ptr<BatchCostModel> make_analytic_cost_model(
    const core::SystemConfig& config, const ServeModel& model,
    const CostModelOptions& options);

// Measures each distinct batch size once: a fresh MacoSystem with
// `options.nodes` nodes, `options.instances` processes each submitting
// the batch's full GEMM task list, driven to completion by os::Scheduler;
// the engine-time makespan is the charged cost. Model dimensions must fit
// the detailed machine (checked per layer at measurement time with a
// typed diagnostic naming the offending shape).
std::unique_ptr<BatchCostModel> make_detailed_cost_model(
    const core::SystemConfig& config, const ServeModel& model,
    const CostModelOptions& options);

}  // namespace maco::serve

// Pluggable fidelity backends for the experiment API.
//
// An ExecutionBackend turns TimingOptions into SystemTiming at a chosen
// fidelity: `analytic` evaluates core::SystemTimingModel (closed forms +
// contention models, paper-scale in microseconds), `detailed` executes the
// GEMM end to end on core::MacoSystem (small shapes only; the machine moves
// traffic but no operand values, which timing never reads), `sampled`
// simulates a seeded stratified sample of the first-level tile
// grid on the same detailed machine and scales the per-stratum means to
// full-workload estimates with confidence intervals (src/sampling/ —
// paper-scale shapes, no size cap). Scenarios declare
// which fidelities they support in their ParamSchema; the sweep runner
// selects the backend per point from the `fidelity` parameter.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/timing_model.hpp"
#include "obs/observation.hpp"

namespace maco::exp {

enum class Fidelity { kAnalytic, kDetailed, kSampled };

std::string_view fidelity_name(Fidelity fidelity) noexcept;
// Throws std::invalid_argument on an unknown spelling.
Fidelity parse_fidelity(std::string_view name);

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual Fidelity fidelity() const noexcept = 0;

  // One GEMM (options.shape) under the scenario's execution options.
  // A non-null `observation` asks the backend to capture counters/spans
  // per its want_* flags; only the detailed backend records anything (the
  // analytic and sampled rungs have no machine to observe), and capture
  // never changes the returned timing.
  virtual core::SystemTiming run(const core::TimingOptions& options,
                                 obs::RunObservation* observation =
                                     nullptr) = 0;

  // A layer sequence (a DNN / HPL trailing updates) back to back. The
  // detailed rung runs every layer on one machine, so `observation` holds
  // that machine's counters and timeline.
  virtual core::SystemTiming run_layers(
      const std::vector<sa::TileShape>& layers,
      const core::TimingOptions& options,
      obs::RunObservation* observation = nullptr) = 0;
};

std::unique_ptr<ExecutionBackend> make_backend(
    Fidelity fidelity, const core::SystemConfig& config);

}  // namespace maco::exp

// Scenario registry of the `macosim` driver.
//
// A scenario is one named, parameterized experiment: every workload
// (GEMM, HPL, and any DNN as a graph manifest), baseline comparison
// (src/baselines/) and paper table is registered here so one CLI can run
// and sweep all of them; a paper figure is a sweep of one of them
// (docs/SCENARIOS.md). Each scenario declares a typed exp::ParamSchema (the
// single parser for its knobs) and consumes a fully-validated
// exp::ParamSet; scenarios that execute the MACO machine do so through an
// exp::ExecutionBackend selected by the `fidelity` parameter, so the same
// experiment can run against the analytic timing model or the detailed
// machine.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "exp/backend.hpp"
#include "exp/param_schema.hpp"
#include "exp/results.hpp"

namespace maco::driver {

using exp::ScenarioResult;

// One fully-validated run: the hardware config (knobs already applied) and
// the scenario's typed parameters (defaults filled by the schema).
struct ScenarioRequest {
  core::SystemConfig config = core::SystemConfig::maco_default();
  exp::ParamSet params;

  // Ask the scenario to record execution spans and return them as
  // ScenarioResult::trace_json (driver --trace-out). Only scenarios that
  // run a detailed machine or the serve loop produce spans; others ignore
  // the flag and leave trace_json empty.
  bool collect_trace = false;

  // The `fidelity` parameter when the scenario declares one (analytic
  // otherwise), and the matching execution backend over `config`.
  exp::Fidelity fidelity() const;
  std::unique_ptr<exp::ExecutionBackend> backend() const;
};

// A declarative constraint ACROSS the two schemas of a sweep point: the
// scenario's parameters and the hardware knobs are bound separately, so a
// rule relating them (e.g. `nodes <= node_count`) cannot live on either
// ParamSchema alone. The sweep runner evaluates cross rules on every point
// after both binds and fails the point with the rule text;
// --list-scenarios prints them next to the schema's own constraints.
struct CrossRule {
  std::string rule;  // e.g. "nodes <= node_count"
  std::function<bool(const exp::ParamSet& scenario,
                     const exp::ParamSet& hardware)>
      satisfied;
};

struct Scenario {
  std::string name;
  std::string description;
  exp::ParamSchema schema;
  std::vector<CrossRule> cross_rules;  // scenario-vs-hardware constraints
  std::function<ScenarioResult(const ScenarioRequest&)> run;
};

// The fidelities a scenario accepts, as "analytic|detailed|..." from its
// declared `fidelity` choices — "analytic (fixed)" for scenarios without
// the parameter (no detailed machine). Printed by --list-scenarios.
std::string fidelity_summary(const Scenario& scenario);

class ScenarioRegistry {
 public:
  // Returns false (and leaves the registry unchanged) on a duplicate name.
  bool add(Scenario scenario);

  // nullptr when unknown.
  const Scenario* find(std::string_view name) const noexcept;

  std::vector<std::string> names() const;
  const std::vector<Scenario>& scenarios() const noexcept {
    return scenarios_;
  }

  // A registry pre-populated with every built-in scenario.
  static ScenarioRegistry builtin();

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace maco::driver

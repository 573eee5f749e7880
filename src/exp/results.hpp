// Structured experiment results.
//
// A scenario emits Metric records — name, value, unit, direction — instead
// of bare name/double pairs. The sweep runner's CSV and JSON writers, the
// console table and the tests all consume metrics through the formatting
// helpers here, so there is exactly one value-serialization path.
#pragma once

#include <string>
#include <vector>

namespace maco::exp {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;              // "" for dimensionless metrics
  bool higher_is_better = true;  // direction for campaign-level comparisons
};

// Latency-percentile naming convention: a metric whose name contains a
// percentile segment ("p50", "p95", "p999" between underscores or at
// either end) or the word "latency" measures time-to-respond, where less
// is better. Callers that don't state a direction get this inference, so
// a scenario can't accidentally declare latency_p99_ms as
// higher-is-better; an explicit direction always wins.
bool lower_is_better_metric_name(std::string_view name) noexcept;

struct ScenarioResult {
  std::vector<Metric> metrics;

  // Chrome/Perfetto trace JSON for this run; empty unless the caller asked
  // for a trace (ScenarioRequest::collect_trace) AND the scenario produced
  // spans. The sweep runner writes it to <trace_out>/<point>.trace.json —
  // it never flows into CSV/JSON metric tables or the campaign store.
  std::string trace_json;

  // Direction inferred from the name (see lower_is_better_metric_name).
  void add(std::string name, double value, std::string unit = {}) {
    const bool higher = !lower_is_better_metric_name(name);
    metrics.push_back(Metric{std::move(name), value, std::move(unit),
                             higher});
  }

  void add(std::string name, double value, std::string unit,
           bool higher_is_better) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit),
                             higher_is_better});
  }

  // nullptr when no metric has that name.
  const Metric* find(std::string_view name) const noexcept;
};

// Compact canonical number format shared by every writer: integers without
// a decimal point, everything else at 10 significant digits.
std::string format_metric_value(double value);

}  // namespace maco::exp

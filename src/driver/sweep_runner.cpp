#include "driver/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "driver/hardware_knobs.hpp"
#include "exp/results.hpp"
#include "obs/host_profile.hpp"
#include "store/campaign_store.hpp"
#include "store/fingerprint.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace maco::driver {
namespace {

// The parameter set of Cartesian point `index` (row-major over the axes).
std::map<std::string, std::string> point_params(
    const SweepRequest& request, std::size_t index) {
  std::map<std::string, std::string> params = request.base_params;
  std::size_t remainder = index;
  for (auto axis = request.axes.rbegin(); axis != request.axes.rend();
       ++axis) {
    params[axis->key] = axis->values[remainder % axis->values.size()];
    remainder /= axis->values.size();
  }
  return params;
}

}  // namespace

std::size_t sweep_point_count(const std::vector<SweepAxis>& axes) {
  std::size_t count = 1;
  for (const SweepAxis& axis : axes) count *= axis.values.size();
  return count;
}

std::size_t SweepResults::failures() const noexcept {
  std::size_t count = 0;
  for (const SweepRow& row : rows) {
    if (!row.ok()) ++count;
  }
  return count;
}

std::size_t SweepResults::cached() const noexcept {
  std::size_t count = 0;
  for (const SweepRow& row : rows) {
    if (row.cached) ++count;
  }
  return count;
}

SweepResults run_sweep(const ScenarioRegistry& registry,
                       const SweepRequest& request,
                       store::CampaignStore* store) {
  const Scenario* scenario = registry.find(request.scenario);
  if (scenario == nullptr) {
    std::string known;
    for (const std::string& name : registry.names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    throw std::invalid_argument("unknown scenario '" + request.scenario +
                                "' (known: " + known + ")");
  }

  // Validate every key and every value up front against the scenario's
  // schema (scenario knobs) or the hardware schema (config knobs). Doing
  // this before any run keeps a 4-hour sweep from dying on a typo or an
  // out-of-range value in its last axis.
  const auto validate = [&](const std::string& key,
                            const std::string& value) {
    if (scenario->schema.has(key)) {
      scenario->schema.parse(key, value);
      return;
    }
    if (hardware_schema().has(key)) {
      hardware_schema().parse(key, value);
      return;
    }
    throw std::invalid_argument("scenario '" + scenario->name +
                                "' has no parameter '" + key +
                                "' and it is not a hardware knob (see "
                                "--list-scenarios)");
  };
  for (const auto& [key, value] : request.base_params) validate(key, value);
  for (const SweepAxis& axis : request.axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("sweep axis '" + axis.key +
                                  "' has no values");
    }
    for (const std::string& value : axis.values) validate(axis.key, value);
  }

  SweepResults results;
  results.scenario = scenario->name;
  for (const SweepAxis& axis : request.axes) {
    results.param_columns.push_back(axis.key);
  }
  for (const auto& [key, value] : request.base_params) {
    if (std::find(results.param_columns.begin(), results.param_columns.end(),
                  key) == results.param_columns.end()) {
      results.param_columns.push_back(key);
    }
  }

  const std::size_t points = sweep_point_count(request.axes);
  results.rows.resize(points);

  // Fail a bad --trace-out before any point runs, not after the sweep.
  if (!request.trace_out.empty()) {
    std::filesystem::create_directories(request.trace_out);
  }

  // The resume key: the scenario's schema chained into the hardware
  // schema. A change to either invalidates every cached point of this
  // scenario rather than silently reusing stale results.
  const std::uint64_t schema_hash = store::schema_digest(
      hardware_schema(), store::schema_digest(scenario->schema));

  // Worker pool: an atomic cursor hands out point indices; every run builds
  // its own SystemConfig and ScenarioRequest, so runs share nothing. The
  // campaign store serializes appends internally, so workers stream
  // completed points straight in.
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&]() {
    while (true) {
      const std::size_t index =
          cursor.fetch_add(1, std::memory_order_relaxed);
      if (index >= points) return;
      SweepRow& row = results.rows[index];
      row.index = index;
      row.params = point_params(request, index);
      try {
        std::map<std::string, std::string> scenario_raw;
        std::map<std::string, std::string> hardware_raw;
        for (const auto& [key, value] : row.params) {
          (scenario->schema.has(key) ? scenario_raw
                                     : hardware_raw)[key] = value;
        }
        const exp::ParamSet hardware_params =
            hardware_schema().bind(hardware_raw);
        const exp::ParamSet scenario_params =
            scenario->schema.bind(scenario_raw);

        // Cross-schema rules relate the two ParamSets (neither schema can
        // express them alone); a violation fails the point with the
        // declared rule text before anything runs or is fingerprinted.
        for (const CrossRule& rule : scenario->cross_rules) {
          if (!rule.satisfied(scenario_params, hardware_params)) {
            throw std::invalid_argument(
                "scenario '" + scenario->name +
                "' violates cross-schema constraint '" + rule.rule + "'");
          }
        }

        // The canonicalization and fingerprint hash only matter to the
        // campaign store; a store-less sweep skips that per-point work.
        store::CampaignRecord record;
        if (store != nullptr) {
          record.scenario = scenario->name;
          record.schema_hash = schema_hash;
          store::canonical_params(scenario_params, record.params,
                                  record.explicit_params);
          store::canonical_params(hardware_params, record.params,
                                  record.explicit_params);
          record.fingerprint = record.computed_fingerprint();
          record.fidelity = scenario_params.has("fidelity")
                                ? scenario_params.str("fidelity")
                                : "analytic";
          store::CampaignRecord cached;
          if (store->lookup(record.fingerprint, schema_hash, cached)) {
            row.result.metrics = std::move(cached.metrics);
            row.cached = true;
            continue;
          }
        }

        ScenarioRequest run;
        apply_hardware_params(hardware_params, run.config);
        run.params = scenario_params;
        run.collect_trace = !request.trace_out.empty();

        // Host self-profiling piggybacks on profile=counters: the sink is
        // installed for the run so the detailed runner / serve oracle's
        // setup/sim/collect ScopedPhase timers land here; without it they
        // stay no-ops.
        const bool host_profile =
            hardware_params.str("profile") == "counters";
        obs::HostPhaseProfile phases;
        const auto start = std::chrono::steady_clock::now();
        try {
          obs::ScopedHostProfile guard(host_profile ? &phases : nullptr);
          row.result = scenario->run(run);
        } catch (const std::exception& error) {
          row.error = error.what();
        }
        if (host_profile && row.ok()) {
          const double total_ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          row.result.add("host_setup_ms", phases.ms("setup"), "ms",
                         /*higher_is_better=*/false);
          row.result.add("host_sim_ms", phases.ms("sim"), "ms",
                         /*higher_is_better=*/false);
          row.result.add("host_collect_ms", phases.ms("collect"), "ms",
                         /*higher_is_better=*/false);
          row.result.add("host_total_ms", total_ms, "ms",
                         /*higher_is_better=*/false);
        }
        if (!request.trace_out.empty() && row.ok() &&
            !row.result.trace_json.empty()) {
          const std::filesystem::path path =
              std::filesystem::path(request.trace_out) /
              (scenario->name + "_p" + std::to_string(index) +
               ".trace.json");
          std::ofstream trace_file(path);
          if (!trace_file) {
            throw std::runtime_error("cannot write trace file '" +
                                     path.string() + "'");
          }
          trace_file << row.result.trace_json;
        }
        if (store != nullptr) {
          record.wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
          record.metrics = row.result.metrics;
          record.error = row.error;
          store->append(record);
        }
      } catch (const std::exception& error) {
        // Bind/constraint failures (and store write failures) land here;
        // there is no fingerprintable outcome to record.
        row.error = error.what();
      }
    }
  };

  const unsigned thread_count = std::max(
      1u, std::min<unsigned>(request.threads, static_cast<unsigned>(points)));
  if (thread_count <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (unsigned i = 0; i < thread_count; ++i) {
      threads.emplace_back(worker);
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Metric columns: union over rows in first-seen order, so every row of a
  // homogeneous sweep lines up and heterogeneous failures leave blanks.
  // A metric that shares its name with a parameter column (e.g. a scenario
  // echoing a swept `size`) is dropped — the parameter column already
  // carries the value.
  for (const SweepRow& row : results.rows) {
    for (const exp::Metric& metric : row.result.metrics) {
      if (std::find(results.param_columns.begin(),
                    results.param_columns.end(),
                    metric.name) != results.param_columns.end()) {
        continue;
      }
      const bool seen = std::any_of(
          results.metric_columns.begin(), results.metric_columns.end(),
          [&](const MetricColumn& column) {
            return column.name == metric.name;
          });
      if (!seen) {
        results.metric_columns.push_back(
            MetricColumn{metric.name, metric.unit, metric.higher_is_better});
      }
    }
  }
  return results;
}

void write_csv(std::ostream& out, const SweepResults& results) {
  bool first = true;
  for (const std::string& column : results.param_columns) {
    if (!first) out << ',';
    util::write_csv_cell(out, column);
    first = false;
  }
  for (const MetricColumn& column : results.metric_columns) {
    if (!first) out << ',';
    util::write_csv_cell(out, column.name);
    first = false;
  }
  if (!first) out << ',';
  out << "error\n";

  for (const SweepRow& row : results.rows) {
    first = true;
    for (const std::string& column : results.param_columns) {
      if (!first) out << ',';
      const auto it = row.params.find(column);
      util::write_csv_cell(
          out, it == row.params.end() ? std::string() : it->second);
      first = false;
    }
    for (const MetricColumn& column : results.metric_columns) {
      if (!first) out << ',';
      if (const exp::Metric* metric = row.result.find(column.name)) {
        util::write_csv_cell(out, exp::format_metric_value(metric->value));
      }
      first = false;
    }
    if (!first) out << ',';
    util::write_csv_cell(out, row.error);
    out << '\n';
  }
}

void write_json(std::ostream& out, const SweepResults& results) {
  out << "{\"scenario\":\"" << util::json_escape(results.scenario)
      << "\",\"columns\":[";
  bool first = true;
  for (const MetricColumn& column : results.metric_columns) {
    if (!first) out << ',';
    out << "{\"name\":\"" << util::json_escape(column.name)
        << "\",\"unit\":\"" << util::json_escape(column.unit)
        << "\",\"higher_is_better\":"
        << (column.higher_is_better ? "true" : "false") << '}';
    first = false;
  }
  out << "],\"rows\":[";
  bool first_row = true;
  for (const SweepRow& row : results.rows) {
    if (!first_row) out << ',';
    first_row = false;
    out << "{\"params\":{";
    first = true;
    for (const auto& [key, value] : row.params) {
      if (!first) out << ',';
      out << '"' << util::json_escape(key) << "\":\""
          << util::json_escape(value) << '"';
      first = false;
    }
    out << "},\"metrics\":{";
    first = true;
    for (const exp::Metric& metric : row.result.metrics) {
      if (!first) out << ',';
      out << '"' << util::json_escape(metric.name) << "\":";
      if (std::isfinite(metric.value)) {
        out << exp::format_metric_value(metric.value);
      } else {
        out << "null";
      }
      first = false;
    }
    out << '}';
    if (!row.ok()) {
      out << ",\"error\":\"" << util::json_escape(row.error) << '"';
    }
    out << '}';
  }
  out << "]}\n";
}

}  // namespace maco::driver

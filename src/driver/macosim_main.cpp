// macosim: the unified MACO simulation driver.
//
// Every workload, baseline and paper figure is a registered scenario;
// hardware knobs and scenario parameters share one --set/--sweep grammar
// backed by typed schemas. See driver/cli.hpp for the grammar,
// driver/scenario_registry.cpp for the scenario catalogue and
// driver/hardware_knobs.cpp for the sweepable hardware parameters.
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>

#include "driver/cli.hpp"
#include "driver/graph_cmd.hpp"
#include "driver/hardware_knobs.hpp"
#include "driver/scenario_registry.hpp"
#include "driver/store_import.hpp"
#include "driver/sweep_runner.hpp"
#include "driver/trace_cmd.hpp"
#include "store/campaign_store.hpp"
#include "store/query.hpp"
#include "util/file.hpp"
#include "util/table.hpp"

namespace {

using namespace maco;

// "size:u64=4096 [1,1048576]" / "precision:enum=fp64 fp64|fp32|fp16".
std::string describe_param(const exp::ParamDecl& decl) {
  std::string text = decl.name;
  text += ':';
  text += exp::param_type_name(decl.type);
  text += '=';
  text += decl.default_value.to_string();
  const std::string range = decl.range_text();
  if (!range.empty()) {
    text += ' ';
    text += range;
  }
  return text;
}

void list_scenarios(const driver::ScenarioRegistry& registry) {
  util::Table t({"Scenario", "Fidelities",
                 "Parameters (name:type=default range)", "Description"});
  for (const driver::Scenario& scenario : registry.scenarios()) {
    std::ostringstream params;
    bool first = true;
    for (const exp::ParamDecl& decl : scenario.schema.decls()) {
      if (!first) params << "  ";
      params << describe_param(decl);
      first = false;
    }
    for (const exp::ParamConstraint& constraint :
         scenario.schema.constraints()) {
      if (!first) params << "  ";
      params << "[" << constraint.rule << "]";
      first = false;
    }
    for (const driver::CrossRule& rule : scenario.cross_rules) {
      if (!first) params << "  ";
      params << "[" << rule.rule << "]";
      first = false;
    }
    t.row()
        .cell(scenario.name)
        .cell(driver::fidelity_summary(scenario))
        .cell(params.str())
        .cell(scenario.description);
  }
  t.print(std::cout, "macosim scenarios");

  driver::print_hardware_knob_table(
      std::cout, "hardware knobs (settable/sweepable with any scenario)");
}

void print_results(const driver::SweepResults& results) {
  std::vector<std::string> headers;
  headers.insert(headers.end(), results.param_columns.begin(),
                 results.param_columns.end());
  for (const driver::MetricColumn& column : results.metric_columns) {
    headers.push_back(column.unit.empty()
                          ? column.name
                          : column.name + " [" + column.unit + "]");
  }
  // A sweep whose every point failed before producing metrics (e.g. a
  // default-violating constraint with nothing --set) has no real
  // columns; keep one status column so rows stay printable.
  const bool status_only = headers.empty();
  if (status_only) headers.push_back("status");
  util::Table t(headers);
  for (const driver::SweepRow& row : results.rows) {
    auto out = t.row();
    if (status_only) out.cell(row.ok() ? "ok" : "ERROR");
    for (const std::string& column : results.param_columns) {
      const auto it = row.params.find(column);
      out.cell(it == row.params.end() ? "" : it->second);
    }
    for (const driver::MetricColumn& column : results.metric_columns) {
      if (const exp::Metric* metric = row.result.find(column.name)) {
        out.cell(metric->value, 4);
      } else {
        out.cell(row.ok() ? "" : "ERROR");
      }
    }
  }
  std::ostringstream title;
  title << "scenario '" << results.scenario << "': " << results.rows.size()
        << " run(s)";
  if (results.failures() > 0) title << ", " << results.failures()
                                   << " FAILED";
  t.print(std::cout, title.str());
  for (const driver::SweepRow& row : results.rows) {
    if (!row.ok()) {
      std::cout << "run " << row.index << " failed: " << row.error << "\n";
    }
  }
}

// Opens `path` for writing, creating missing parent directories so
// `--output results/today/sweep.csv` works on a fresh tree.
bool open_output(const std::string& path, std::ofstream& out) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    // A failure surfaces as the open failure below.
  }
  out.open(path);
  if (!out) {
    std::cerr << "macosim: cannot write " << path << "\n";
    return false;
  }
  return true;
}

bool write_to(const std::string& path, bool quiet,
              const driver::SweepResults& results,
              void (*writer)(std::ostream&, const driver::SweepResults&)) {
  if (path == "-") {
    writer(std::cout, results);
    return true;
  }
  std::ofstream out;
  if (!open_output(path, out)) return false;
  writer(out, results);
  if (!quiet) {
    std::cout << "wrote " << results.rows.size() << " row(s) to " << path
              << "\n";
  }
  return true;
}

store::ReportFormat report_format(const std::string& name) {
  if (name == "csv") return store::ReportFormat::kCsv;
  if (name == "json") return store::ReportFormat::kJson;
  if (name == "md") return store::ReportFormat::kMarkdown;
  return store::ReportFormat::kTable;
}

// The `report` subcommand: query one store, optionally diff it against
// another. Exit codes: 0 clean, 2 usage/IO error, 3 regressions found.
int run_report(const driver::CliOptions& options) {
  std::unique_ptr<store::CampaignStore> current;
  std::unique_ptr<store::CampaignStore> baseline;
  try {
    current = std::make_unique<store::CampaignStore>(
        options.store_path, store::CampaignStore::Mode::kReadOnly);
    if (!options.compare_path.empty()) {
      baseline = std::make_unique<store::CampaignStore>(
          options.compare_path, store::CampaignStore::Mode::kReadOnly);
    }
  } catch (const std::exception& error) {
    std::cerr << "macosim: " << error.what() << "\n";
    return 2;
  }
  for (const store::CampaignStore* db : {current.get(), baseline.get()}) {
    if (db != nullptr && db->recovered_dropped_bytes() > 0 &&
        !options.quiet) {
      std::cerr << "macosim: warning: '" << db->path() << "' has a torn "
                << "tail (" << db->recovered_dropped_bytes()
                << " byte(s) ignored)\n";
    }
  }

  const std::vector<const store::CampaignRecord*> selected =
      store::select(current->records(), options.where);

  std::ofstream file;
  const bool to_file =
      !options.output_path.empty() && options.output_path != "-";
  if (to_file && !open_output(options.output_path, file)) return 2;
  std::ostream& out = to_file ? static_cast<std::ostream&>(file)
                              : std::cout;
  const store::ReportFormat format = report_format(options.output_format);

  if (baseline == nullptr) {
    const store::CampaignTable table =
        store::build_table(selected, options.metrics);
    store::write_table(out, table, format);
    return 0;
  }

  store::CompareOptions compare;
  compare.tolerance = options.tolerance;
  compare.ignore = options.ignore_keys;
  compare.metrics = options.metrics;
  const std::vector<const store::CampaignRecord*> reference =
      store::select(baseline->records(), options.where);
  const store::CampaignComparison comparison =
      store::compare_campaigns(selected, reference, compare);
  store::write_comparison(out, comparison, format, compare);
  // Zero matched points with data on both sides means the comparison
  // proved nothing (a schema change shifted every fingerprint, or the
  // campaigns are disjoint) — a regression gate keying on the exit code
  // must not read that as "clean".
  if (comparison.points.empty() && !selected.empty() &&
      !reference.empty()) {
    std::cerr << "macosim: no points matched between '"
              << options.store_path << "' and '" << options.compare_path
              << "' (schema change? disjoint campaigns? consider "
                 "--ignore for A/B knobs)\n";
    return 2;
  }
  if (comparison.regressions() > 0) {
    if (!options.quiet) {
      std::cerr << "macosim: " << comparison.regressions()
                << " regression(s) beyond tolerance\n";
    }
    return 3;
  }
  return 0;
}

// The `store compact` subcommand. Exit codes: 0 ok, 2 usage/IO error.
int run_store_compact(const driver::CliOptions& options) {
  try {
    const store::CampaignStore::CompactionResult result =
        store::CampaignStore::compact(options.store_path);
    if (!options.quiet) {
      std::cout << "store '" << options.store_path << "': kept "
                << result.kept << " record(s), dropped " << result.dropped
                << " superseded record(s)\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "macosim: " << error.what() << "\n";
    return 2;
  }
}

// The `store import` subcommand: seed/refresh a store from sweep JSON
// (e.g. a committed BENCH_*.json trajectory). Exit codes: 0 ok, 2
// usage/IO/validation error.
int run_store_import(const driver::CliOptions& options) {
  std::string text;
  try {
    text = util::read_text_file(options.import_path);
  } catch (const std::exception& error) {
    std::cerr << "macosim: " << error.what() << "\n";
    return 2;
  }
  try {
    const driver::ScenarioRegistry registry =
        driver::ScenarioRegistry::builtin();
    store::CampaignStore store(options.store_path);
    const driver::ImportSummary summary =
        driver::import_sweep_json(registry, text, store);
    if (!options.quiet) {
      std::cout << "store '" << options.store_path << "': imported "
                << summary.imported << " point(s) from "
                << options.import_path << ", " << summary.skipped
                << " already present";
      if (summary.errored > 0) {
        std::cout << ", " << summary.errored
                  << " failed row(s) not imported";
      }
      std::cout << "\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "macosim: " << options.import_path << ": " << error.what()
              << "\n";
    return 2;
  }
}

// The `trace` subcommand: render a --trace-out JSON as ASCII Gantt plus
// the NoC heatmap when present. Exit codes: 0 ok, 2 usage/IO error.
int run_trace(const driver::CliOptions& options) {
  std::string text;
  try {
    text = util::read_text_file(options.trace_path);
  } catch (const std::exception& error) {
    std::cerr << "macosim: " << error.what() << "\n";
    return 2;
  }
  driver::TraceRender render;
  try {
    render = driver::render_trace(text, options.trace_width);
  } catch (const std::exception& error) {
    std::cerr << "macosim: " << options.trace_path << ": " << error.what()
              << "\n";
    return 2;
  }

  std::ofstream file;
  const bool to_file =
      !options.output_path.empty() && options.output_path != "-";
  if (to_file && !open_output(options.output_path, file)) return 2;
  std::ostream& out =
      to_file ? static_cast<std::ostream&>(file) : std::cout;
  out << render.gantt;
  if (!render.noc_text.empty()) out << "\n" << render.noc_text;

  if (!options.noc_csv_path.empty()) {
    if (render.noc_csv.empty()) {
      std::cerr << "macosim: " << options.trace_path
                << " carries no NoC link traffic (--noc-csv needs a "
                   "profile=counters trace)\n";
      return 2;
    }
    std::ofstream csv;
    if (!open_output(options.noc_csv_path, csv)) return 2;
    csv << render.noc_csv;
  }
  return 0;
}

// The `graph validate|show` subcommands: schema-check a model manifest
// and (show) print the lowered layer table, no simulation. Exit codes:
// 0 ok, 2 usage/IO/validation error.
int run_graph(const driver::CliOptions& options) {
  std::string rendered;
  try {
    if (options.command == driver::CliCommand::kGraphValidate) {
      rendered = driver::validate_manifest(options.graph_file) + "\n";
    } else {
      graph::LoweringOptions lowering;
      lowering.batch = options.graph_batch;
      lowering.seq_len = options.graph_seq_len;
      lowering.phase = graph::parse_phase(options.graph_phase);
      lowering.moe_top_k = options.graph_moe_top_k;
      rendered = driver::show_manifest(options.graph_file, lowering);
    }
  } catch (const std::exception& error) {
    std::cerr << "macosim: " << error.what() << "\n";
    return 2;
  }
  std::ofstream file;
  const bool to_file =
      !options.output_path.empty() && options.output_path != "-";
  if (to_file && !open_output(options.output_path, file)) return 2;
  (to_file ? static_cast<std::ostream&>(file) : std::cout) << rendered;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const driver::CliParse parse = driver::parse_cli(args);
  if (!parse.ok) {
    std::cerr << "macosim: " << parse.error << "\n";
    return 2;
  }
  const driver::CliOptions& options = parse.options;
  if (options.show_help) {
    std::cout << driver::usage();
    return 0;
  }
  if (options.command == driver::CliCommand::kReport) {
    return run_report(options);
  }
  if (options.command == driver::CliCommand::kStoreCompact) {
    return run_store_compact(options);
  }
  if (options.command == driver::CliCommand::kStoreImport) {
    return run_store_import(options);
  }
  if (options.command == driver::CliCommand::kTrace) {
    return run_trace(options);
  }
  if (options.command == driver::CliCommand::kGraphValidate ||
      options.command == driver::CliCommand::kGraphShow) {
    return run_graph(options);
  }

  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  if (options.list_scenarios) {
    list_scenarios(registry);
    return 0;
  }

  driver::SweepRequest request;
  request.scenario = options.scenario;
  request.base_params = options.params;
  request.axes = options.sweeps;
  request.threads = options.threads;
  request.trace_out = options.trace_out;

  std::unique_ptr<store::CampaignStore> campaign;
  if (!options.store_path.empty()) {
    try {
      campaign = std::make_unique<store::CampaignStore>(options.store_path);
    } catch (const std::exception& error) {
      std::cerr << "macosim: " << error.what() << "\n";
      return 2;
    }
    if (campaign->recovered_dropped_bytes() > 0 && !options.quiet) {
      std::cout << "store '" << options.store_path << "': recovered "
                << campaign->size() << " point(s), truncated "
                << campaign->recovered_dropped_bytes()
                << " torn byte(s)\n";
    }
  }

  driver::SweepResults results;
  try {
    results = driver::run_sweep(registry, request, campaign.get());
  } catch (const std::exception& error) {
    std::cerr << "macosim: " << error.what() << "\n";
    return 2;
  }

  if (!options.quiet) print_results(results);
  if (campaign != nullptr && !options.quiet) {
    std::cout << "store '" << options.store_path << "': "
              << results.cached() << " cached point(s) skipped, "
              << results.rows.size() - results.cached()
              << " new point(s) executed\n";
  }

  // --output is the one result destination, in the chosen --format.
  if (!options.output_path.empty() &&
      !write_to(options.output_path, options.quiet, results,
                options.output_format == "json" ? driver::write_json
                                                : driver::write_csv)) {
    return 2;
  }
  return results.failures() == 0 ? 0 : 1;
}

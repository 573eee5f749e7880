#include "driver/cli.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace maco::driver {
namespace {

// Splits `text` at every `sep`, keeping empty pieces (so "a,,b" is caught
// as a malformed axis rather than silently collapsing).
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string::size_type start = 0;
  while (true) {
    const auto pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool parse_unsigned(const std::string& text, unsigned& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

// ".json" => "json"; "" when the path has no (or an empty) extension.
std::string path_extension(const std::string& path) {
  const auto slash = path.find_last_of("/\\");
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos || dot + 1 == path.size()) return {};
  if (slash != std::string::npos && dot < slash) return {};
  return path.substr(dot + 1);
}

}  // namespace

AxisParse parse_axis(const std::string& spec) {
  AxisParse result;
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    result.error = "expected key=v1,v2,... in '" + spec + "'";
    return result;
  }
  result.axis.key = spec.substr(0, eq);
  result.axis.values = split(spec.substr(eq + 1), ',');
  for (const std::string& value : result.axis.values) {
    if (value.empty()) {
      result.error = "empty value in sweep axis '" + spec + "'";
      return result;
    }
  }
  if (result.axis.values.empty()) {
    result.error = "no values in sweep axis '" + spec + "'";
    return result;
  }
  result.ok = true;
  return result;
}

namespace {

// The `report` subcommand grammar: query, pivot and compare campaign
// stores.
CliParse parse_report_cli(const std::vector<std::string>& args) {
  CliParse result;
  CliOptions& options = result.options;
  options.command = CliCommand::kReport;

  const auto value_of = [&](std::size_t& i, std::string& out) {
    if (i + 1 >= args.size()) {
      result.error = "missing value after " + args[i];
      return false;
    }
    out = args[++i];
    return true;
  };

  bool tolerance_set = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options.show_help = true;
    } else if (arg == "--quiet" || arg == "-q") {
      options.quiet = true;
    } else if (arg == "--store") {
      if (!value_of(i, value)) return result;
      options.store_path = value;
    } else if (arg == "--compare") {
      if (!value_of(i, value)) return result;
      options.compare_path = value;
    } else if (arg == "--where") {
      if (!value_of(i, value)) return result;
      const auto eq = value.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
        result.error =
            "expected key=value after --where, got '" + value + "'";
        return result;
      }
      options.where[value.substr(0, eq)] = value.substr(eq + 1);
    } else if (arg == "--metric") {
      if (!value_of(i, value)) return result;
      options.metrics.push_back(value);
    } else if (arg == "--ignore") {
      if (!value_of(i, value)) return result;
      options.ignore_keys.push_back(value);
    } else if (arg == "--tolerance") {
      if (!value_of(i, value)) return result;
      try {
        std::size_t consumed = 0;
        options.tolerance = std::stod(value, &consumed);
        // !(x >= 0) also rejects NaN, which would disable every
        // regression comparison while exiting 0.
        if (consumed != value.size() || !std::isfinite(options.tolerance) ||
            !(options.tolerance >= 0.0)) {
          throw std::invalid_argument(value);
        }
      } catch (const std::exception&) {
        result.error = "--tolerance wants a finite non-negative fraction "
                       "(e.g. 0.02), got '" + value + "'";
        return result;
      }
      tolerance_set = true;
    } else if (arg == "--output" || arg == "-o") {
      if (!value_of(i, value)) return result;
      options.output_path = value;
    } else if (arg == "--format") {
      if (!value_of(i, value)) return result;
      if (value != "table" && value != "csv" && value != "json" &&
          value != "md") {
        result.error =
            "report --format wants table, csv, json or md, got '" + value +
            "'";
        return result;
      }
      options.output_format = value;
    } else {
      result.error =
          "unknown report argument '" + arg + "' (see macosim report "
          "--help)";
      return result;
    }
  }

  if (options.show_help) {
    result.ok = true;
    return result;
  }
  if (options.store_path.empty()) {
    result.error = "report needs --store FILE";
    return result;
  }
  if (options.compare_path.empty()) {
    if (tolerance_set) {
      result.error = "--tolerance only applies with --compare";
      return result;
    }
    if (!options.ignore_keys.empty()) {
      result.error = "--ignore only applies with --compare";
      return result;
    }
  }
  if (options.output_format.empty()) {
    if (options.output_path.empty() || options.output_path == "-") {
      options.output_format = "table";
    } else {
      const std::string ext = path_extension(options.output_path);
      if (ext == "csv" || ext == "json" || ext == "md") {
        options.output_format = ext;
      } else {
        result.error = "cannot infer --format for --output '" +
                       options.output_path +
                       "': unknown extension (expected .csv, .json or "
                       ".md, or pass --format)";
        return result;
      }
    }
  }
  result.ok = true;
  return result;
}

// `macosim store compact --store FILE` and
// `macosim store import FILE.json --store FILE`: maintenance and seeding
// of long-lived campaign stores.
CliParse parse_store_cli(const std::vector<std::string>& args) {
  CliParse result;
  CliOptions& options = result.options;

  if (args.size() < 2 ||
      (args[1] != "compact" && args[1] != "import" && args[1] != "--help" &&
       args[1] != "-h")) {
    result.error = "store wants a subcommand: macosim store compact "
                   "--store FILE, or macosim store import FILE.json "
                   "--store FILE";
    return result;
  }
  if (args[1] == "--help" || args[1] == "-h") {
    options.command = CliCommand::kStoreCompact;
    options.show_help = true;
    result.ok = true;
    return result;
  }
  const bool import = args[1] == "import";
  options.command =
      import ? CliCommand::kStoreImport : CliCommand::kStoreCompact;
  const std::string subcommand = "store " + args[1];
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.show_help = true;
    } else if (arg == "--quiet" || arg == "-q") {
      options.quiet = true;
    } else if (arg == "--store") {
      if (i + 1 >= args.size()) {
        result.error = "missing value after --store";
        return result;
      }
      options.store_path = args[++i];
    } else if (import && options.import_path.empty() && !arg.empty() &&
               arg[0] != '-') {
      options.import_path = arg;
    } else {
      result.error = "unknown " + subcommand + " argument '" + arg +
                     "' (see macosim store --help)";
      return result;
    }
  }
  if (!options.show_help) {
    if (import && options.import_path.empty()) {
      result.error = "store import needs a sweep JSON file: macosim store "
                     "import FILE.json --store FILE";
      return result;
    }
    if (options.store_path.empty()) {
      result.error = subcommand + " needs --store FILE";
      return result;
    }
  }
  result.ok = true;
  return result;
}

// `macosim trace FILE.trace.json`: render a --trace-out file as an ASCII
// Gantt chart (plus the NoC heatmap when the file carries link traffic).
CliParse parse_trace_cli(const std::vector<std::string>& args) {
  CliParse result;
  CliOptions& options = result.options;
  options.command = CliCommand::kTrace;

  const auto value_of = [&](std::size_t& i, std::string& out) {
    if (i + 1 >= args.size()) {
      result.error = "missing value after " + args[i];
      return false;
    }
    out = args[++i];
    return true;
  };

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options.show_help = true;
    } else if (arg == "--width") {
      if (!value_of(i, value)) return result;
      if (!parse_unsigned(value, options.trace_width) ||
          options.trace_width < 16 || options.trace_width > 1024) {
        result.error = "--width wants an integer in [16, 1024], got '" +
                       value + "'";
        return result;
      }
    } else if (arg == "--noc-csv") {
      if (!value_of(i, value)) return result;
      options.noc_csv_path = value;
    } else if (arg == "--output" || arg == "-o") {
      if (!value_of(i, value)) return result;
      options.output_path = value;
    } else if (options.trace_path.empty() && !arg.empty() &&
               arg[0] != '-') {
      options.trace_path = arg;
    } else {
      result.error = "unknown trace argument '" + arg +
                     "' (see macosim trace --help)";
      return result;
    }
  }
  if (!options.show_help && options.trace_path.empty()) {
    result.error =
        "trace needs a file: macosim trace FILE.trace.json [--width N] "
        "[--noc-csv FILE]";
    return result;
  }
  result.ok = true;
  return result;
}

// `macosim graph validate|show FILE`: schema-check a model manifest and
// (show) print its lowered layer table without running any simulation.
CliParse parse_graph_cli(const std::vector<std::string>& args) {
  CliParse result;
  CliOptions& options = result.options;

  if (args.size() < 2 ||
      (args[1] != "validate" && args[1] != "show" && args[1] != "--help" &&
       args[1] != "-h")) {
    result.error = "graph wants a subcommand: macosim graph validate FILE, "
                   "or macosim graph show FILE [--batch N] [--seq-len N] "
                   "[--phase prefill|decode] [--moe-top-k N]";
    return result;
  }
  if (args[1] == "--help" || args[1] == "-h") {
    options.command = CliCommand::kGraphValidate;
    options.show_help = true;
    result.ok = true;
    return result;
  }
  const bool show = args[1] == "show";
  options.command =
      show ? CliCommand::kGraphShow : CliCommand::kGraphValidate;
  const std::string subcommand = "graph " + args[1];

  const auto value_of = [&](std::size_t& i, std::string& out) {
    if (i + 1 >= args.size()) {
      result.error = "missing value after " + args[i];
      return false;
    }
    out = args[++i];
    return true;
  };
  const auto unsigned_of = [&](std::size_t& i, unsigned& out) {
    std::string value;
    if (!value_of(i, value)) return false;
    if (!parse_unsigned(value, out)) {
      result.error = args[i - 1] + " wants a non-negative integer, got '" +
                     value + "'";
      return false;
    }
    return true;
  };

  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options.show_help = true;
    } else if (show && arg == "--batch") {
      if (!unsigned_of(i, options.graph_batch)) return result;
    } else if (show && arg == "--seq-len") {
      if (!unsigned_of(i, options.graph_seq_len)) return result;
    } else if (show && arg == "--moe-top-k") {
      if (!unsigned_of(i, options.graph_moe_top_k)) return result;
    } else if (show && arg == "--phase") {
      if (!value_of(i, value)) return result;
      if (value != "prefill" && value != "decode") {
        result.error = "--phase wants prefill or decode, got '" + value +
                       "'";
        return result;
      }
      options.graph_phase = value;
    } else if (arg == "--output" || arg == "-o") {
      if (!value_of(i, value)) return result;
      options.output_path = value;
    } else if (options.graph_file.empty() && !arg.empty() &&
               arg[0] != '-') {
      options.graph_file = arg;
    } else {
      result.error = "unknown " + subcommand + " argument '" + arg +
                     "' (see macosim graph --help)";
      return result;
    }
  }
  if (!options.show_help && options.graph_file.empty()) {
    result.error = subcommand + " needs a manifest: macosim " + subcommand +
                   " FILE";
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace

CliParse parse_cli(const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "report") return parse_report_cli(args);
  if (!args.empty() && args[0] == "store") return parse_store_cli(args);
  if (!args.empty() && args[0] == "trace") return parse_trace_cli(args);
  if (!args.empty() && args[0] == "graph") return parse_graph_cli(args);

  CliParse result;
  CliOptions& options = result.options;

  const auto value_of = [&](std::size_t& i, std::string& out) {
    if (i + 1 >= args.size()) {
      result.error = "missing value after " + args[i];
      return false;
    }
    out = args[++i];
    return true;
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options.show_help = true;
    } else if (arg == "--list-scenarios" || arg == "--list") {
      options.list_scenarios = true;
    } else if (arg == "--quiet" || arg == "-q") {
      options.quiet = true;
    } else if (arg == "--scenario") {
      if (!value_of(i, value)) return result;
      if (!options.scenario.empty() && options.scenario != value) {
        result.error = "--scenario given twice ('" + options.scenario +
                       "' and '" + value + "')";
        return result;
      }
      options.scenario = value;
    } else if (arg == "--set") {
      if (!value_of(i, value)) return result;
      const auto eq = value.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
        result.error = "expected key=value after --set, got '" + value + "'";
        return result;
      }
      const std::string key = value.substr(0, eq);
      if (options.params.count(key) != 0) {
        result.error = "--set " + key + " given twice";
        return result;
      }
      for (const SweepAxis& axis : options.sweeps) {
        if (axis.key == key) {
          result.error = "'" + key + "' is both a --set and a --sweep axis";
          return result;
        }
      }
      options.params[key] = value.substr(eq + 1);
    } else if (arg == "--sweep") {
      if (!value_of(i, value)) return result;
      AxisParse axis = parse_axis(value);
      if (!axis.ok) {
        result.error = axis.error;
        return result;
      }
      for (const SweepAxis& existing : options.sweeps) {
        if (existing.key == axis.axis.key) {
          result.error = "sweep axis '" + axis.axis.key + "' given twice";
          return result;
        }
      }
      if (options.params.count(axis.axis.key) != 0) {
        result.error =
            "'" + axis.axis.key + "' is both a --set and a --sweep axis";
        return result;
      }
      options.sweeps.push_back(std::move(axis.axis));
    } else if (arg == "--threads" || arg == "-j") {
      if (!value_of(i, value)) return result;
      if (!parse_unsigned(value, options.threads) || options.threads == 0) {
        result.error = "--threads wants a positive integer, got '" + value +
                       "'";
        return result;
      }
    } else if (arg == "--store") {
      if (!value_of(i, value)) return result;
      options.store_path = value;
    } else if (arg == "--trace-out") {
      if (!value_of(i, value)) return result;
      if (value.empty()) {
        result.error = "--trace-out wants a directory";
        return result;
      }
      options.trace_out = value;
    } else if (arg == "--output" || arg == "-o") {
      if (!value_of(i, value)) return result;
      options.output_path = value;
    } else if (arg == "--format") {
      if (!value_of(i, value)) return result;
      if (value != "csv" && value != "json") {
        result.error = "--format wants csv or json, got '" + value + "'";
        return result;
      }
      options.output_format = value;
    } else {
      result.error = "unknown argument '" + arg + "' (see --help)";
      return result;
    }
  }

  if (!options.show_help && !options.list_scenarios &&
      options.scenario.empty()) {
    result.error = "no --scenario given (see --list-scenarios)";
    return result;
  }
  if (!options.output_format.empty() && options.output_path.empty()) {
    result.error = "--format needs --output FILE";
    return result;
  }
  if (!options.output_path.empty() && options.output_format.empty()) {
    // No explicit --format: infer from the extension. An extension that
    // names neither format is rejected instead of silently producing CSV
    // in a file whose name promises something else. "-" (stdout) keeps
    // its historical CSV default.
    const std::string ext = path_extension(options.output_path);
    if (ext == "json") {
      options.output_format = "json";
    } else if (ext == "csv" || options.output_path == "-") {
      options.output_format = "csv";
    } else {
      result.error = "cannot infer --format for --output '" +
                     options.output_path +
                     "': unknown extension (expected .csv or .json, or "
                     "pass --format csv|json)";
      return result;
    }
  }
  result.ok = true;
  return result;
}

std::string usage() {
  std::ostringstream out;
  out << "macosim - unified MACO simulation sweep driver\n"
         "\n"
         "usage: macosim --scenario NAME [options]\n"
         "       macosim --list-scenarios\n"
         "       macosim report --store FILE [report options]\n"
         "       macosim store compact --store FILE\n"
         "       macosim store import FILE.json --store FILE\n"
         "       macosim trace FILE.trace.json [--width N] "
         "[--noc-csv FILE]\n"
         "       macosim graph validate FILE\n"
         "       macosim graph show FILE [--batch N] [--seq-len N]\n"
         "                              [--phase prefill|decode] "
         "[--moe-top-k N]\n"
         "\n"
         "options:\n"
         "  --scenario NAME        scenario to run (see --list-scenarios)\n"
         "  --set KEY=VALUE        fix one parameter (repeatable)\n"
         "  --sweep KEY=V1,V2,...  sweep one axis (repeatable; axes combine\n"
         "                         as a Cartesian product)\n"
         "  --threads N            worker threads for the sweep (default 1)\n"
         "  --store FILE           campaign store: record every point and\n"
         "                         skip points already recorded (resume)\n"
         "  --trace-out DIR        write one Chrome/Perfetto trace JSON per\n"
         "                         executed point that produced spans\n"
         "                         (detailed runs and serve; open in\n"
         "                         ui.perfetto.dev or macosim trace)\n"
         "  --output FILE          write results to FILE, '-' for CSV on\n"
         "                         stdout (see --format); without it no\n"
         "                         file is written\n"
         "  --format csv|json      format for --output (inferred from a\n"
         "                         .csv/.json extension; other extensions\n"
         "                         need an explicit --format)\n"
         "  --quiet                suppress the progress/result table\n"
         "  --list-scenarios       list scenarios with their typed\n"
         "                         parameters (type, default, range) and\n"
         "                         cross-field constraints\n"
         "  --help                 this text\n"
         "\n"
         "report options (query/compare a campaign store):\n"
         "  --store FILE           the store to read (required)\n"
         "  --where KEY=VALUE      keep matching points only (repeatable;\n"
         "                         'scenario' matches the scenario name)\n"
         "  --metric NAME          restrict metric columns (repeatable)\n"
         "  --compare FILE         diff against another store: per-metric\n"
         "                         deltas, direction-aware regressions\n"
         "  --tolerance FRACTION   relative regression tolerance for\n"
         "                         --compare (default 0.02)\n"
         "  --ignore KEY           drop KEY when matching points across\n"
         "                         stores (repeatable; for A/B knobs)\n"
         "  --format FMT           table (default), csv, json or md\n"
         "  --output FILE          write the report to FILE\n"
         "\n"
         "store maintenance:\n"
         "  macosim store compact --store FILE\n"
         "                         rewrite the store keeping only the\n"
         "                         latest record per point (drops\n"
         "                         superseded re-run and error records)\n"
         "  macosim store import FILE.json --store FILE\n"
         "                         load sweep JSON (--format json output,\n"
         "                         e.g. a committed BENCH_*.json\n"
         "                         trajectory) into a store; rows are\n"
         "                         re-validated and fingerprinted under\n"
         "                         the current schemas, already-present\n"
         "                         points are skipped\n"
         "\n"
         "trace rendering:\n"
         "  macosim trace FILE.trace.json\n"
         "                         ASCII Gantt of the trace's spans; adds\n"
         "                         a per-node NoC utilization heatmap when\n"
         "                         the file carries link traffic\n"
         "  --width N              Gantt chart columns, 16-1024 (default 72)\n"
         "  --noc-csv FILE         also dump per-link utilization CSV\n"
         "  --output FILE          write the rendering to FILE\n"
         "\n"
         "model graphs (docs/GRAPHS.md):\n"
         "  macosim graph validate FILE\n"
         "                         schema-check a model manifest (shapes,\n"
         "                         edges, attrs, acyclicity); exit 0 when\n"
         "                         it loads, 2 with a diagnostic when not.\n"
         "                         FILE may also name a builtin, as\n"
         "                         model_file does (e.g. gpt3-block)\n"
         "  macosim graph show FILE\n"
         "                         print the lowered GEMM layer table and\n"
         "                         per-op FLOP/byte contributions without\n"
         "                         running anything; --batch/--seq-len/\n"
         "                         --phase/--moe-top-k override manifest\n"
         "                         defaults (run manifests for real with\n"
         "                         --scenario graph --set model_file=FILE)\n"
         "  --output FILE          write the summary/table to FILE\n"
         "\n"
         "Parameters are scenario knobs (e.g. size, precision, nodes,\n"
         "fidelity) or hardware config knobs (e.g. node_count, sa_rows,\n"
         "dram_efficiency, l3_slice_kib, stlb_entries, dma_outstanding).\n"
         "Every value is validated against the typed schema before any\n"
         "run starts. Scenarios supporting it accept\n"
         "fidelity=analytic|detailed|sampled: the analytic timing model,\n"
         "the detailed MacoSystem machine (<= 2048 per dimension), or\n"
         "the sampled estimator (detailed fidelity at any scale via\n"
         "stratified tile sampling, with *_ci95 error-bar columns; knobs\n"
         "sample_frac, sample_seed, ci_target, sample_workers). A sampled\n"
         "point simulates sample_workers machines at once (default 0: one\n"
         "per hardware thread), so a --threads N sweep of sampled points\n"
         "holds N x sample_workers machines in memory.\n"
         "\n"
         "examples:\n"
         "  macosim --scenario gemm --sweep nodes=1,4,16 \\\n"
         "          --sweep size=1024,4096 --threads 4 --output sweep.csv\n"
         "  macosim --scenario gemm --sweep size=1024,2048,4096 \\\n"
         "          --store campaign.mdb     # killed? rerun: only the\n"
         "                                   # missing points execute\n"
         "  macosim report --store campaign.mdb --where nodes=16\n"
         "  macosim report --store new.mdb --compare baseline.mdb \\\n"
         "          --tolerance 0.05         # exit 3 on regressions\n";
  return out.str();
}

}  // namespace maco::driver

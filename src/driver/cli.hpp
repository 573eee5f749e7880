// Command-line front end of the unified `macosim` driver.
//
// One grammar covers every workload, baseline and hardware knob:
//
//   macosim --list-scenarios
//   macosim --scenario gemm --set size=4096 --set precision=fp32
//   macosim --scenario gemm --set fidelity=detailed --set size=512
//   macosim --scenario gemm --sweep nodes=1,4,16 --sweep size=1024,4096
//           --threads 4 --output sweep.json --format json
//   macosim --scenario gemm --sweep size=1024,4096 --store campaign.mdb
//   macosim report --store campaign.mdb --where nodes=16
//   macosim report --store new.mdb --compare baseline.mdb --tolerance 0.05
//   macosim store compact --store campaign.mdb
//   macosim store import BENCH_dram.json --store baseline.mdb
//   macosim graph validate examples/models/bert-block.json
//   macosim graph show examples/models/gpt3-block.json --phase decode
//
// Parsing is pure (no I/O, no exit()) so tests can drive it directly.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace maco::driver {

// One `--sweep key=v1,v2,...` axis, in command-line order.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

enum class CliCommand {
  kSweep,         // the default: run/sweep one scenario
  kReport,        // query/compare a campaign store
  kStoreCompact,  // rewrite a store keeping the latest record per point
  kStoreImport,   // load sweep-runner JSON (e.g. BENCH_*.json) into a store
  kTrace,         // render a --trace-out JSON as ASCII Gantt + NoC heatmap
  kGraphValidate,  // schema-check a model manifest, print a summary
  kGraphShow,      // print a manifest's lowered layer table (no run)
};

struct CliOptions {
  CliCommand command = CliCommand::kSweep;
  bool show_help = false;
  bool list_scenarios = false;
  bool quiet = false;
  std::string scenario;
  std::map<std::string, std::string> params;  // --set key=value overrides
  std::vector<SweepAxis> sweeps;              // --sweep axes (Cartesian)
  unsigned threads = 1;
  std::string output_path;    // --output FILE: "-" => stdout, "" => none
  std::string output_format;  // sweep: "csv"/"json"; report: +"md"/"table"
  std::string store_path;     // --store: campaign database (both commands)
  std::string import_path;    // store import: the sweep JSON to load
  std::string trace_out;      // --trace-out DIR: per-point trace JSONs

  // `trace` only: render one trace file in the terminal.
  std::string trace_path;     // the .trace.json to render
  unsigned trace_width = 72;  // --width: Gantt columns
  std::string noc_csv_path;   // --noc-csv FILE: per-link utilization CSV

  // `graph validate|show` only: the manifest plus lowering overrides
  // (0 = the manifest's own defaults; see graph::LoweringOptions).
  std::string graph_file;
  unsigned graph_batch = 0;      // --batch
  unsigned graph_seq_len = 0;    // --seq-len
  std::string graph_phase = "prefill";  // --phase prefill|decode
  unsigned graph_moe_top_k = 0;  // --moe-top-k

  // `report` only:
  std::string compare_path;                   // --compare OTHER_STORE
  std::map<std::string, std::string> where;   // --where key=value filters
  std::vector<std::string> metrics;           // --metric NAME columns
  std::vector<std::string> ignore_keys;       // --ignore KEY (matching)
  double tolerance = 0.02;                    // --tolerance FRACTION
};

struct CliParse {
  bool ok = false;
  CliOptions options;
  std::string error;  // set when !ok
};

// Parses argv[1..]; never exits or prints.
CliParse parse_cli(const std::vector<std::string>& args);

// Splits "key=v1,v2,v3" into an axis; empty key/values => ok=false.
struct AxisParse {
  bool ok = false;
  SweepAxis axis;
  std::string error;
};
AxisParse parse_axis(const std::string& spec);

// The --help text.
std::string usage();

}  // namespace maco::driver

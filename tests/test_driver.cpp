// The macosim driver: CLI parsing, scenario registry, hardware knobs,
// sweep execution and result serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/cli.hpp"
#include "driver/graph_cmd.hpp"
#include "driver/hardware_knobs.hpp"
#include "driver/scenario_registry.hpp"
#include "driver/sweep_runner.hpp"
#include "graph/builtin_models.hpp"
#include "overflow_manifests.hpp"
#include "store/campaign_store.hpp"

namespace maco::driver {
namespace {

// A deterministic scenario that echoes its parameters as metrics, so sweep
// mechanics are testable without the timing model.
Scenario echo_scenario() {
  Scenario s;
  s.name = "echo";
  s.description = "test scenario";
  s.schema.u64("a", 0, "first echoed knob", 0, 1000);
  s.schema.u64("b", 0, "second echoed knob");
  s.schema.flag("fail", false, "throw instead of producing metrics");
  s.run = [](const ScenarioRequest& request) {
    if (request.params.flag("fail")) {
      throw std::runtime_error("deliberate failure");
    }
    ScenarioResult result;
    result.add("a_times_10",
               static_cast<double>(request.params.u64("a") * 10));
    result.add("b_plus_1", static_cast<double>(request.params.u64("b") + 1));
    result.add("node_count", request.config.node_count);
    return result;
  };
  return s;
}

ScenarioRegistry echo_registry() {
  ScenarioRegistry registry;
  EXPECT_TRUE(registry.add(echo_scenario()));
  return registry;
}

// ---- CLI parsing ----

TEST(Cli, ParsesFullCommandLine) {
  const CliParse parse = parse_cli(
      {"--scenario", "gemm", "--sweep", "nodes=1,4,16", "--sweep",
       "size=1024,4096", "--set", "precision=fp32", "--threads", "4",
       "--output", "out.json", "--quiet"});
  ASSERT_TRUE(parse.ok) << parse.error;
  const CliOptions& options = parse.options;
  EXPECT_EQ(options.scenario, "gemm");
  ASSERT_EQ(options.sweeps.size(), 2u);
  EXPECT_EQ(options.sweeps[0].key, "nodes");
  EXPECT_EQ(options.sweeps[0].values,
            (std::vector<std::string>{"1", "4", "16"}));
  EXPECT_EQ(options.sweeps[1].key, "size");
  ASSERT_EQ(options.params.count("precision"), 1u);
  EXPECT_EQ(options.params.at("precision"), "fp32");
  EXPECT_EQ(options.threads, 4u);
  EXPECT_EQ(options.output_path, "out.json");
  EXPECT_EQ(options.output_format, "json");
  EXPECT_TRUE(options.quiet);
}

TEST(Cli, RequiresAScenario) {
  const CliParse parse = parse_cli({"--threads", "2"});
  EXPECT_FALSE(parse.ok);
  EXPECT_NE(parse.error.find("--scenario"), std::string::npos);
}

TEST(Cli, ListAndHelpNeedNoScenario) {
  EXPECT_TRUE(parse_cli({"--list-scenarios"}).ok);
  EXPECT_TRUE(parse_cli({"--help"}).ok);
}

TEST(Cli, RejectsUnknownFlag) {
  const CliParse parse = parse_cli({"--scenario", "gemm", "--frobnicate"});
  EXPECT_FALSE(parse.ok);
  EXPECT_NE(parse.error.find("--frobnicate"), std::string::npos);
  // --output is the one result destination: --csv and --json are unknown.
  for (const char* flag : {"--csv", "--json"}) {
    const CliParse removed = parse_cli({"--scenario", "gemm", flag, "x"});
    EXPECT_FALSE(removed.ok) << flag;
    EXPECT_NE(removed.error.find(std::string("unknown argument '") + flag),
              std::string::npos)
        << removed.error;
  }
}

TEST(Cli, RejectsMissingValue) {
  EXPECT_FALSE(parse_cli({"--scenario"}).ok);
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--sweep"}).ok);
}

TEST(Cli, RejectsDuplicateSweepAxis) {
  const CliParse parse = parse_cli(
      {"--scenario", "gemm", "--sweep", "size=1,2", "--sweep", "size=3,4"});
  EXPECT_FALSE(parse.ok);
  EXPECT_NE(parse.error.find("twice"), std::string::npos);
}

TEST(Cli, RejectsSetSweepConflicts) {
  CliParse parse = parse_cli(
      {"--scenario", "gemm", "--set", "size=1024", "--set", "size=4096"});
  EXPECT_FALSE(parse.ok);
  EXPECT_NE(parse.error.find("twice"), std::string::npos);
  // --set then --sweep on the same key, and the reverse order.
  parse = parse_cli(
      {"--scenario", "gemm", "--set", "nodes=8", "--sweep", "nodes=1,4"});
  EXPECT_FALSE(parse.ok);
  parse = parse_cli(
      {"--scenario", "gemm", "--sweep", "nodes=1,4", "--set", "nodes=8"});
  EXPECT_FALSE(parse.ok);
  EXPECT_NE(parse.error.find("both a --set and a --sweep"),
            std::string::npos);
}

TEST(Cli, RejectsBadThreadCount) {
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--threads", "0"}).ok);
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--threads", "many"}).ok);
}

TEST(Cli, RejectsMalformedSetAndSweep) {
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--set", "noequals"}).ok);
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--set", "key="}).ok);
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--sweep", "k=1,,2"}).ok);
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--sweep", "=1,2"}).ok);
}

TEST(Cli, ParseAxisSplitsValues) {
  const AxisParse axis = parse_axis("nodes=1,4,16");
  ASSERT_TRUE(axis.ok) << axis.error;
  EXPECT_EQ(axis.axis.key, "nodes");
  EXPECT_EQ(axis.axis.values, (std::vector<std::string>{"1", "4", "16"}));
}

TEST(Cli, ParsesOutputAndFormat) {
  const CliParse parse = parse_cli(
      {"--scenario", "gemm", "--output", "out.json", "--format", "json"});
  ASSERT_TRUE(parse.ok) << parse.error;
  EXPECT_EQ(parse.options.output_path, "out.json");
  EXPECT_EQ(parse.options.output_format, "json");
  // --format is optional: inferred from the extension, csv otherwise.
  const CliParse csv = parse_cli({"--scenario", "gemm", "-o", "out.csv"});
  ASSERT_TRUE(csv.ok) << csv.error;
  EXPECT_EQ(csv.options.output_path, "out.csv");
  EXPECT_EQ(csv.options.output_format, "csv");
  const CliParse inferred =
      parse_cli({"--scenario", "gemm", "--output", "out.json"});
  ASSERT_TRUE(inferred.ok) << inferred.error;
  EXPECT_EQ(inferred.options.output_format, "json");
}

TEST(Cli, RejectsUninferrableOutputExtensions) {
  // An extension naming neither format must fail loudly instead of
  // silently producing CSV in a file whose name promises something else.
  for (const char* path : {"out.txt", "out.xml", "results", "out.json.bak",
                           "dir.d/out"}) {
    const CliParse parse = parse_cli({"--scenario", "gemm", "-o", path});
    EXPECT_FALSE(parse.ok) << path;
    EXPECT_NE(parse.error.find("cannot infer --format"), std::string::npos)
        << path;
  }
  // An explicit --format overrides any extension.
  const CliParse forced = parse_cli(
      {"--scenario", "gemm", "-o", "out.txt", "--format", "csv"});
  ASSERT_TRUE(forced.ok) << forced.error;
  EXPECT_EQ(forced.options.output_format, "csv");
  // "-" (stdout) keeps its historical CSV default in both commands.
  const CliParse stdout_sweep = parse_cli({"--scenario", "gemm", "-o", "-"});
  ASSERT_TRUE(stdout_sweep.ok) << stdout_sweep.error;
  EXPECT_EQ(stdout_sweep.options.output_format, "csv");
  const CliParse stdout_report =
      parse_cli({"report", "--store", "a.mdb", "-o", "-"});
  ASSERT_TRUE(stdout_report.ok) << stdout_report.error;
  EXPECT_EQ(stdout_report.options.output_format, "table");
}

TEST(Cli, ParsesStorePath) {
  const CliParse parse = parse_cli(
      {"--scenario", "gemm", "--store", "campaign.mdb"});
  ASSERT_TRUE(parse.ok) << parse.error;
  EXPECT_EQ(parse.options.command, CliCommand::kSweep);
  EXPECT_EQ(parse.options.store_path, "campaign.mdb");
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--store"}).ok);
}

TEST(Cli, ParsesReportCommand) {
  const CliParse parse = parse_cli(
      {"report", "--store", "a.mdb", "--where", "nodes=16", "--where",
       "size=512", "--metric", "gflops", "--compare", "b.mdb",
       "--tolerance", "0.05", "--ignore", "dram_efficiency", "--format",
       "md"});
  ASSERT_TRUE(parse.ok) << parse.error;
  const CliOptions& options = parse.options;
  EXPECT_EQ(options.command, CliCommand::kReport);
  EXPECT_EQ(options.store_path, "a.mdb");
  EXPECT_EQ(options.compare_path, "b.mdb");
  ASSERT_EQ(options.where.size(), 2u);
  EXPECT_EQ(options.where.at("nodes"), "16");
  EXPECT_EQ(options.metrics, (std::vector<std::string>{"gflops"}));
  EXPECT_EQ(options.ignore_keys,
            (std::vector<std::string>{"dram_efficiency"}));
  EXPECT_DOUBLE_EQ(options.tolerance, 0.05);
  EXPECT_EQ(options.output_format, "md");
}

TEST(Cli, ReportValidatesItsGrammar) {
  // --store is mandatory.
  EXPECT_FALSE(parse_cli({"report"}).ok);
  EXPECT_FALSE(parse_cli({"report", "--where", "nodes=16"}).ok);
  // --tolerance/--ignore only make sense with --compare.
  EXPECT_FALSE(
      parse_cli({"report", "--store", "a.mdb", "--tolerance", "0.1"}).ok);
  EXPECT_FALSE(
      parse_cli({"report", "--store", "a.mdb", "--ignore", "nodes"}).ok);
  // Malformed values.
  EXPECT_FALSE(parse_cli({"report", "--store", "a.mdb", "--compare",
                          "b.mdb", "--tolerance", "lots"})
                   .ok);
  EXPECT_FALSE(parse_cli({"report", "--store", "a.mdb", "--compare",
                          "b.mdb", "--tolerance", "-0.1"})
                   .ok);
  // NaN/inf would silently disable every regression comparison.
  EXPECT_FALSE(parse_cli({"report", "--store", "a.mdb", "--compare",
                          "b.mdb", "--tolerance", "nan"})
                   .ok);
  EXPECT_FALSE(parse_cli({"report", "--store", "a.mdb", "--compare",
                          "b.mdb", "--tolerance", "inf"})
                   .ok);
  EXPECT_FALSE(
      parse_cli({"report", "--store", "a.mdb", "--where", "noequals"}).ok);
  EXPECT_FALSE(
      parse_cli({"report", "--store", "a.mdb", "--format", "xml"}).ok);
  // Sweep-only flags are rejected under report.
  EXPECT_FALSE(
      parse_cli({"report", "--store", "a.mdb", "--scenario", "gemm"}).ok);
  // Output format defaults and inference.
  EXPECT_EQ(parse_cli({"report", "--store", "a.mdb"})
                .options.output_format,
            "table");
  EXPECT_EQ(parse_cli({"report", "--store", "a.mdb", "-o", "r.md"})
                .options.output_format,
            "md");
  EXPECT_FALSE(
      parse_cli({"report", "--store", "a.mdb", "-o", "r.xml"}).ok);
}

TEST(Cli, RejectsBadOutputCombinations) {
  // Unknown format.
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--output", "x", "--format",
                          "xml"})
                   .ok);
  // --format without --output.
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--format", "json"}).ok);
  // An extension that names no format, without --format.
  EXPECT_FALSE(parse_cli({"--scenario", "gemm", "--output", "a.txt"}).ok);
  // "-" is CSV on stdout.
  EXPECT_EQ(parse_cli({"--scenario", "gemm", "--output", "-"})
                .options.output_format,
            "csv");
}

// ---- scenario registry ----

TEST(Registry, BuiltinCoversWorkloadsBaselinesAndBenches) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  for (const char* name :
       {"gemm", "hpl", "graph", "baselines", "area_power", "ext_sparsity",
        "tables", "micro_dram", "serve"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.scenarios().size(), 9u);
}

TEST(Registry, EveryScenarioDeclaresTypedDefaults) {
  // The schema is the single source of parameter truth: every declared
  // parameter carries a type and a default that parses against itself.
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  for (const Scenario& scenario : registry.scenarios()) {
    for (const exp::ParamDecl& decl : scenario.schema.decls()) {
      EXPECT_NO_THROW(scenario.schema.parse(
          decl.name, decl.default_value.to_string()))
          << scenario.name << "." << decl.name;
    }
  }
}

TEST(Registry, FindRejectsUnknownName) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  EXPECT_EQ(registry.find("no_such_scenario"), nullptr);
  EXPECT_EQ(registry.find(""), nullptr);
}

TEST(Registry, AddRejectsDuplicateName) {
  ScenarioRegistry registry;
  EXPECT_TRUE(registry.add(echo_scenario()));
  EXPECT_FALSE(registry.add(echo_scenario()));
  EXPECT_EQ(registry.scenarios().size(), 1u);
}

TEST(Cli, ParsesGraphSubcommand) {
  const CliParse validate =
      parse_cli({"graph", "validate", "models/bert.json"});
  ASSERT_TRUE(validate.ok) << validate.error;
  EXPECT_EQ(validate.options.command, CliCommand::kGraphValidate);
  EXPECT_EQ(validate.options.graph_file, "models/bert.json");

  const CliParse show = parse_cli(
      {"graph", "show", "models/gpt3.json", "--batch", "4", "--seq-len",
       "128", "--phase", "decode", "--moe-top-k", "2", "-o", "out.txt"});
  ASSERT_TRUE(show.ok) << show.error;
  EXPECT_EQ(show.options.command, CliCommand::kGraphShow);
  EXPECT_EQ(show.options.graph_file, "models/gpt3.json");
  EXPECT_EQ(show.options.graph_batch, 4u);
  EXPECT_EQ(show.options.graph_seq_len, 128u);
  EXPECT_EQ(show.options.graph_phase, "decode");
  EXPECT_EQ(show.options.graph_moe_top_k, 2u);
  EXPECT_EQ(show.options.output_path, "out.txt");
}

TEST(Cli, GraphValidatesItsGrammar) {
  // A subcommand and a manifest file are mandatory.
  EXPECT_FALSE(parse_cli({"graph"}).ok);
  EXPECT_FALSE(parse_cli({"graph", "lower", "x.json"}).ok);
  EXPECT_FALSE(parse_cli({"graph", "validate"}).ok);
  EXPECT_FALSE(parse_cli({"graph", "show"}).ok);
  // Lowering overrides only apply to show.
  EXPECT_FALSE(
      parse_cli({"graph", "validate", "x.json", "--batch", "4"}).ok);
  // Typed values are rejected in the parser, not at run time.
  EXPECT_FALSE(
      parse_cli({"graph", "show", "x.json", "--batch", "many"}).ok);
  EXPECT_FALSE(
      parse_cli({"graph", "show", "x.json", "--phase", "training"}).ok);
  // --help needs no file.
  EXPECT_TRUE(parse_cli({"graph", "--help"}).ok);
  EXPECT_TRUE(parse_cli({"graph", "show", "--help"}).ok);
}

TEST(Cli, TraceBoundsTheChartWidth) {
  const CliParse widest =
      parse_cli({"trace", "t.trace.json", "--width", "1024"});
  ASSERT_TRUE(widest.ok) << widest.error;
  EXPECT_EQ(widest.options.trace_width, 1024u);
  EXPECT_FALSE(parse_cli({"trace", "t.trace.json", "--width", "15"}).ok);
  // One string of `width` characters per track: no unbounded allocation.
  const CliParse huge =
      parse_cli({"trace", "t.trace.json", "--width", "100000"});
  EXPECT_FALSE(huge.ok);
  EXPECT_NE(huge.error.find("--width"), std::string::npos) << huge.error;
}

TEST(GraphCommand, ResolvesBuiltinNamesLikeModelFile) {
  // `macosim graph validate|show` name a manifest the way every
  // `model_file` parameter does: a builtin name, else a path.
  for (const graph::BuiltinManifest& builtin : graph::builtin_manifests()) {
    EXPECT_EQ(validate_manifest(builtin.name).rfind(
                  std::string(builtin.name) + ": ok (model ", 0),
              0u)
        << builtin.name;
  }
  const std::string path = ::testing::TempDir() + "/gpt3_block_copy.json";
  std::ofstream(path) << graph::builtin_manifest("gpt3-block");
  graph::LoweringOptions decode;
  decode.phase = graph::Phase::kDecode;
  EXPECT_EQ(show_manifest("gpt3-block", decode), show_manifest(path, decode));
  // A name that is neither a builtin nor a file still fails to read.
  EXPECT_ANY_THROW((void)validate_manifest("gpt3-blok"));
}

TEST(Registry, FidelitySummaryListsDeclaredChoices) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  const Scenario* gemm = registry.find("gemm");
  ASSERT_NE(gemm, nullptr);
  EXPECT_EQ(fidelity_summary(*gemm), "analytic|detailed|sampled");
  const Scenario* graph = registry.find("graph");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(fidelity_summary(*graph), "analytic|detailed|sampled");
  const Scenario* serve = registry.find("serve");
  ASSERT_NE(serve, nullptr);
  EXPECT_EQ(fidelity_summary(*serve), "analytic|detailed");
  // No fidelity parameter: the scenario always evaluates analytically.
  const Scenario* area = registry.find("area_power");
  ASSERT_NE(area, nullptr);
  EXPECT_EQ(fidelity_summary(*area), "analytic (fixed)");
}

TEST(Registry, GemmDeclaresAllThreeFidelities) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  const Scenario* gemm = registry.find("gemm");
  ASSERT_NE(gemm, nullptr);
  const exp::ParamDecl* fidelity = gemm->schema.find("fidelity");
  ASSERT_NE(fidelity, nullptr);
  EXPECT_EQ(fidelity->type, exp::ParamType::kEnum);
  EXPECT_EQ(fidelity->choices,
            (std::vector<std::string>{"analytic", "detailed", "sampled"}));
  // Scenarios that cannot run the detailed machine whole (cooperative
  // layer sequences) reject fidelity=detailed in their schema but accept
  // the sampled estimator.
  const Scenario* hpl = registry.find("hpl");
  ASSERT_NE(hpl, nullptr);
  EXPECT_THROW(hpl->schema.parse("fidelity", "detailed"),
               std::invalid_argument);
  EXPECT_NO_THROW(hpl->schema.parse("fidelity", "sampled"));
}

// ---- hardware knobs ----

TEST(HardwareKnobs, ExplicitKnobsFoldIntoSystemConfig) {
  const exp::ParamSet params = hardware_schema().bind(
      {{"node_count", "4"},
       {"sa_rows", "8"},
       {"sa_cols", "8"},
       {"dram_efficiency", "0.5"},
       {"l3_slice_kib", "4096"},
       {"stlb_entries", "2048"},
       {"dma_outstanding", "16"},
       {"stq_entries", "4"}});
  core::SystemConfig config = core::SystemConfig::maco_default();
  apply_hardware_params(params, config);
  EXPECT_EQ(config.node_count, 4u);
  EXPECT_EQ(config.mmae.sa.rows, 8u);
  EXPECT_EQ(config.mmae.sa.cols, 8u);
  EXPECT_DOUBLE_EQ(config.dram_efficiency, 0.5);
  EXPECT_EQ(config.ccm.l3.size_bytes, 4096u * 1024u);
  EXPECT_EQ(config.cpu.mmu.l2_tlb_entries, 2048u);
  EXPECT_EQ(config.mmae.dma.max_outstanding, 16u);
  EXPECT_EQ(config.mmae.stq_entries, 4u);
  // Knobs not explicitly set leave the caller's config untouched.
  EXPECT_EQ(config.dram_channels, 4u);
  EXPECT_EQ(config.mmae.matlb_entries, 256u);
}

TEST(HardwareKnobs, DefaultsMatchMacoDefaultConfig) {
  // Schema defaults document the paper platform: what --list-scenarios
  // prints as a default must be what SystemConfig::maco_default() builds.
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const exp::ParamSchema& schema = hardware_schema();
  const auto default_u64 = [&](const char* name) {
    const exp::ParamDecl* decl = schema.find(name);
    EXPECT_NE(decl, nullptr) << name;
    return decl == nullptr ? 0u : decl->default_value.as_u64();
  };
  EXPECT_EQ(default_u64("node_count"), config.node_count);
  EXPECT_EQ(default_u64("mesh_width"), config.mesh.width);
  EXPECT_EQ(default_u64("mesh_height"), config.mesh.height);
  EXPECT_EQ(default_u64("sa_rows"), config.mmae.sa.rows);
  EXPECT_EQ(default_u64("sa_cols"), config.mmae.sa.cols);
  EXPECT_EQ(default_u64("dram_channels"), config.dram_channels);
  EXPECT_EQ(default_u64("ccm_count"), config.ccm_count);
  EXPECT_EQ(default_u64("matlb_entries"), config.mmae.matlb_entries);
  EXPECT_EQ(default_u64("l3_slice_kib") * 1024, config.ccm.l3.size_bytes);
  EXPECT_EQ(default_u64("stlb_entries"), config.cpu.mmu.l2_tlb_entries);
  EXPECT_EQ(default_u64("dma_outstanding"),
            config.mmae.dma.max_outstanding);
  EXPECT_EQ(default_u64("stq_entries"), config.mmae.stq_entries);
  EXPECT_DOUBLE_EQ(
      schema.find("dram_efficiency")->default_value.as_f64(),
      config.dram_efficiency);
}

TEST(HardwareKnobs, EnforcesMeshCapacityAcrossFields) {
  core::SystemConfig config = core::SystemConfig::maco_default();
  // 64 nodes do not fit the default 4x4 mesh...
  EXPECT_THROW(
      apply_hardware_params(hardware_schema().bind({{"node_count", "64"}}),
                            config),
      std::invalid_argument);
  // ...but do once the mesh is widened, and both mesh models resize.
  config = core::SystemConfig::maco_default();
  apply_hardware_params(
      hardware_schema().bind({{"node_count", "64"},
                              {"mesh_width", "8"},
                              {"mesh_height", "8"}}),
      config);
  EXPECT_EQ(config.node_count, 64u);
  EXPECT_EQ(config.mesh.width, 8u);
  EXPECT_EQ(config.link_load_config().width, 8u);
  EXPECT_EQ(config.link_load_config().height, 8u);
  // A mesh too small for the DDR controllers at nodes {0,3,12,15}.
  config = core::SystemConfig::maco_default();
  EXPECT_THROW(
      apply_hardware_params(
          hardware_schema().bind({{"node_count", "4"},
                                  {"ccm_count", "4"},
                                  {"mesh_width", "2"},
                                  {"mesh_height", "2"}}),
          config),
      std::invalid_argument);
}

TEST(HardwareKnobs, RejectsMalformedAndOutOfRangeValues) {
  EXPECT_THROW(hardware_schema().parse("node_count", "lots"),
               std::invalid_argument);
  EXPECT_THROW(hardware_schema().parse("node_count", "0"),
               std::invalid_argument);
  EXPECT_THROW(hardware_schema().parse("dram_efficiency", "1.5"),
               std::invalid_argument);
  EXPECT_THROW(hardware_schema().parse("dram_efficiency", "fast"),
               std::invalid_argument);
  EXPECT_THROW(hardware_schema().parse("no_such_knob", "1"),
               std::invalid_argument);
}

// ---- sweep runner ----

TEST(Sweep, TwoByTwoProducesFourRowsInCartesianOrder) {
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "echo";
  request.axes = {{"a", {"1", "2"}}, {"b", {"3", "4"}}};
  request.threads = 4;
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 4u);
  EXPECT_EQ(results.failures(), 0u);
  // Row-major over the axes: (1,3) (1,4) (2,3) (2,4).
  const char* expected[4][2] = {{"1", "3"}, {"1", "4"}, {"2", "3"},
                                {"2", "4"}};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(results.rows[i].index, i);
    EXPECT_EQ(results.rows[i].params.at("a"), expected[i][0]);
    EXPECT_EQ(results.rows[i].params.at("b"), expected[i][1]);
    ASSERT_EQ(results.rows[i].result.metrics.size(), 3u);
  }
  EXPECT_DOUBLE_EQ(results.rows[3].result.metrics[0].value, 20.0);
  EXPECT_DOUBLE_EQ(results.rows[3].result.metrics[1].value, 5.0);
}

TEST(Sweep, RejectsUnknownScenarioBeforeRunning) {
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "no_such_scenario";
  EXPECT_THROW(run_sweep(registry, request), std::invalid_argument);
}

TEST(Sweep, RejectsUnknownParameterKeyBeforeRunning) {
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "echo";
  request.base_params = {{"typo", "1"}};
  EXPECT_THROW(run_sweep(registry, request), std::invalid_argument);
  request.base_params.clear();
  request.axes = {{"also_a_typo", {"1", "2"}}};
  EXPECT_THROW(run_sweep(registry, request), std::invalid_argument);
}

TEST(Sweep, RejectsBadValuesBeforeRunning) {
  // Typed validation runs over every axis value before any point executes:
  // a malformed or out-of-range value anywhere fails the whole request.
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "echo";
  request.axes = {{"a", {"1", "2", "banana"}}};
  EXPECT_THROW(run_sweep(registry, request), std::invalid_argument);
  request.axes = {{"a", {"1", "1001"}}};  // above the declared max of 1000
  EXPECT_THROW(run_sweep(registry, request), std::invalid_argument);
  request.axes = {{"fail", {"true", "maybe"}}};
  EXPECT_THROW(run_sweep(registry, request), std::invalid_argument);
  request.axes.clear();
  request.base_params = {{"dram_efficiency", "2.0"}};  // hardware knob range
  EXPECT_THROW(run_sweep(registry, request), std::invalid_argument);
}

TEST(Sweep, AcceptsConfigKnobsAsSweepAxes) {
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "echo";
  request.axes = {{"node_count", {"2", "8"}}};
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 2u);
  // The echo scenario reports the config it actually received.
  EXPECT_DOUBLE_EQ(results.rows[0].result.metrics[2].value, 2.0);
  EXPECT_DOUBLE_EQ(results.rows[1].result.metrics[2].value, 8.0);
}

TEST(Sweep, FailingRunIsIsolatedToItsRow) {
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "echo";
  request.axes = {{"fail", {"false", "true"}}};
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 2u);
  EXPECT_TRUE(results.rows[0].ok());
  EXPECT_FALSE(results.rows[1].ok());
  EXPECT_NE(results.rows[1].error.find("deliberate failure"),
            std::string::npos);
  EXPECT_EQ(results.failures(), 1u);
}

TEST(Sweep, NoAxesMeansOneRun) {
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "echo";
  request.base_params = {{"a", "5"}};
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(results.rows[0].result.metrics[0].value, 50.0);
}

TEST(Sweep, PointCount) {
  EXPECT_EQ(sweep_point_count({}), 1u);
  EXPECT_EQ(sweep_point_count({{"a", {"1", "2", "3"}}}), 3u);
  EXPECT_EQ(sweep_point_count({{"a", {"1", "2"}}, {"b", {"1", "2", "3"}}}),
            6u);
}

TEST(Sweep, CsvHasHeaderAndOneLinePerRun) {
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "echo";
  request.axes = {{"a", {"1", "2"}}, {"b", {"3", "4"}}};
  const SweepResults results = run_sweep(registry, request);
  std::ostringstream out;
  write_csv(out, results);
  const std::string csv = out.str();
  std::size_t lines = 0;
  for (const char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, 5u);  // header + 4 runs
  EXPECT_EQ(csv.rfind("a,b,a_times_10,b_plus_1,node_count,error\n", 0), 0u);
  EXPECT_NE(csv.find("\n2,4,20,5,16,\n"), std::string::npos);
}

TEST(Sweep, JsonSerializesParamsMetricsAndColumnMetadata) {
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "echo";
  request.base_params = {{"a", "2"}};
  const SweepResults results = run_sweep(registry, request);
  std::ostringstream out;
  write_json(out, results);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"scenario\":\"echo\""), std::string::npos);
  EXPECT_NE(json.find("\"a\":\"2\""), std::string::npos);
  EXPECT_NE(json.find("\"a_times_10\":20"), std::string::npos);
  EXPECT_NE(json.find("\"columns\":[{\"name\":\"a_times_10\""),
            std::string::npos);
  EXPECT_NE(json.find("\"higher_is_better\":true"), std::string::npos);
}

TEST(Sweep, CsvRoundTripsThroughAFile) {
  // --output's contract: what lands in the file is byte-identical to the
  // in-memory serialization and survives a read-back.
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "echo";
  request.axes = {{"a", {"1", "2"}}};
  const SweepResults results = run_sweep(registry, request);

  std::ostringstream expected;
  write_csv(expected, results);

  const std::string path =
      ::testing::TempDir() + "/macosim_roundtrip_test.csv";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open());
    write_csv(out, results);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), expected.str());
  std::remove(path.c_str());
}

// ---- end to end on a real scenario (small sizes keep this fast) ----

TEST(Sweep, GemmTwoByTwoOnBuiltinRegistry) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  SweepRequest request;
  request.scenario = "gemm";
  request.base_params = {{"size", "512"}};
  request.axes = {{"nodes", {"1", "4"}}, {"matlb", {"true", "false"}}};
  request.threads = 4;
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 4u);
  EXPECT_EQ(results.failures(), 0u);
  for (const SweepRow& row : results.rows) {
    const exp::Metric* gflops = row.result.find("gflops");
    ASSERT_NE(gflops, nullptr);
    EXPECT_GT(gflops->value, 0.0);
    EXPECT_EQ(gflops->unit, "GFLOP/s");
  }
}

TEST(Sweep, UnsetNodesFollowsNodeCount) {
  // `nodes` left unset tracks the instantiated node_count, so a node_count
  // sweep actually activates the extra nodes instead of sticking at the
  // schema's paper-platform default.
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  SweepRequest request;
  request.scenario = "gemm";
  request.base_params = {{"size", "1024"}};
  request.axes = {{"node_count", {"1", "16"}}};
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 2u);
  ASSERT_EQ(results.failures(), 0u);
  const exp::Metric* one = results.rows[0].result.find("gflops");
  const exp::Metric* sixteen = results.rows[1].result.find("gflops");
  ASSERT_NE(one, nullptr);
  ASSERT_NE(sixteen, nullptr);
  EXPECT_GT(sixteen->value, 2.0 * one->value);
}

TEST(Sweep, AnalyticOnlyScenarioRejectsDetailedFidelityUpFront) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  SweepRequest request;
  request.scenario = "hpl";
  request.base_params = {{"fidelity", "detailed"}};
  EXPECT_THROW(run_sweep(registry, request), std::invalid_argument);
}

// ---- campaign store resume ----

// An echo-like scenario that counts executions, so resume tests can assert
// exactly which points ran.
Scenario counting_scenario(std::shared_ptr<std::atomic<int>> runs) {
  Scenario s;
  s.name = "counted";
  s.description = "test scenario counting its executions";
  s.schema.u64("a", 0, "echoed knob", 0, 1000);
  s.run = [runs = std::move(runs)](const ScenarioRequest& request) {
    runs->fetch_add(1);
    ScenarioResult result;
    result.add("a_times_10",
               static_cast<double>(request.params.u64("a") * 10));
    return result;
  };
  return s;
}

TEST(Sweep, StoreResumeExecutesOnlyTheRemainingPoints) {
  const std::string path =
      ::testing::TempDir() + "/macosim_resume_test.mdb";
  std::remove(path.c_str());
  auto runs = std::make_shared<std::atomic<int>>(0);
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.add(counting_scenario(runs)));

  // First campaign: points a=1,2 execute and land in the store.
  SweepRequest request;
  request.scenario = "counted";
  request.axes = {{"a", {"1", "2"}}};
  {
    store::CampaignStore db(path);
    const SweepResults results = run_sweep(registry, request, &db);
    EXPECT_EQ(results.cached(), 0u);
    EXPECT_EQ(db.size(), 2u);
  }
  EXPECT_EQ(runs->load(), 2);

  // The "interrupted at point 2, restarted with two more points" rerun:
  // only a=3,4 may execute, yet every row must carry its metrics.
  request.axes = {{"a", {"1", "2", "3", "4"}}};
  request.threads = 4;
  {
    store::CampaignStore db(path);
    const SweepResults results = run_sweep(registry, request, &db);
    ASSERT_EQ(results.rows.size(), 4u);
    EXPECT_EQ(results.failures(), 0u);
    EXPECT_EQ(results.cached(), 2u);
    EXPECT_TRUE(results.rows[0].cached);
    EXPECT_TRUE(results.rows[1].cached);
    EXPECT_FALSE(results.rows[2].cached);
    EXPECT_FALSE(results.rows[3].cached);
    for (std::size_t i = 0; i < 4; ++i) {
      const exp::Metric* metric = results.rows[i].result.find("a_times_10");
      ASSERT_NE(metric, nullptr) << "row " << i;
      EXPECT_DOUBLE_EQ(metric->value, 10.0 * static_cast<double>(i + 1));
    }
    EXPECT_EQ(db.size(), 4u);
  }
  EXPECT_EQ(runs->load(), 4);

  // A third identical run is satisfied entirely from the store.
  {
    store::CampaignStore db(path);
    const SweepResults results = run_sweep(registry, request, &db);
    EXPECT_EQ(results.cached(), 4u);
  }
  EXPECT_EQ(runs->load(), 4);
  std::remove(path.c_str());
}

TEST(Sweep, StoreResumeSurvivesATornTail) {
  // The acceptance scenario: a campaign killed mid-write. Truncating the
  // file mid-record must cost exactly the torn point — the rerun executes
  // it (and nothing else) again.
  const std::string path = ::testing::TempDir() + "/macosim_torn_test.mdb";
  std::remove(path.c_str());
  auto runs = std::make_shared<std::atomic<int>>(0);
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.add(counting_scenario(runs)));
  SweepRequest request;
  request.scenario = "counted";
  request.axes = {{"a", {"1", "2", "3"}}};
  {
    store::CampaignStore db(path);
    run_sweep(registry, request, &db);
  }
  EXPECT_EQ(runs->load(), 3);
  // Kill the tail: chop the last 5 bytes, tearing record 3's frame.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() - 5));
  }
  {
    store::CampaignStore db(path);
    EXPECT_GT(db.recovered_dropped_bytes(), 0u);
    const SweepResults results = run_sweep(registry, request, &db);
    EXPECT_EQ(results.cached(), 2u);
    EXPECT_EQ(results.failures(), 0u);
    EXPECT_EQ(db.size(), 3u);
  }
  EXPECT_EQ(runs->load(), 4);  // only the torn point re-ran
  std::remove(path.c_str());
}

TEST(Sweep, StoreSchemaChangeInvalidatesCachedPoints) {
  // Same scenario name, different schema (a widened range): cached points
  // must not be reused across the schema change.
  const std::string path =
      ::testing::TempDir() + "/macosim_schema_test.mdb";
  std::remove(path.c_str());
  auto runs = std::make_shared<std::atomic<int>>(0);
  SweepRequest request;
  request.scenario = "counted";
  request.base_params = {{"a", "7"}};
  {
    ScenarioRegistry registry;
    ASSERT_TRUE(registry.add(counting_scenario(runs)));
    store::CampaignStore db(path);
    run_sweep(registry, request, &db);
    run_sweep(registry, request, &db);
    EXPECT_EQ(runs->load(), 1);  // second run was cached
  }
  {
    ScenarioRegistry registry;
    Scenario changed = counting_scenario(runs);
    changed.schema = exp::ParamSchema();
    changed.schema.u64("a", 0, "echoed knob", 0, 2000);  // widened
    ASSERT_TRUE(registry.add(changed));
    store::CampaignStore db(path);
    const SweepResults results = run_sweep(registry, request, &db);
    EXPECT_EQ(results.cached(), 0u);
  }
  EXPECT_EQ(runs->load(), 2);
  std::remove(path.c_str());
}

TEST(Sweep, FailedPointsAreRecordedButNotResumedFrom) {
  const std::string path =
      ::testing::TempDir() + "/macosim_failed_test.mdb";
  std::remove(path.c_str());
  const ScenarioRegistry registry = echo_registry();
  SweepRequest request;
  request.scenario = "echo";
  request.axes = {{"fail", {"false", "true"}}};
  {
    store::CampaignStore db(path);
    const SweepResults results = run_sweep(registry, request, &db);
    EXPECT_EQ(results.failures(), 1u);
    EXPECT_EQ(db.size(), 2u);  // the failure is part of campaign history
    EXPECT_FALSE(db.records()[1].ok() && db.records()[0].ok());
  }
  {
    store::CampaignStore db(path);
    const SweepResults results = run_sweep(registry, request, &db);
    // The good point resumes; the failed one re-executes (and re-fails).
    EXPECT_EQ(results.cached(), 1u);
    EXPECT_EQ(results.failures(), 1u);
  }
  std::remove(path.c_str());
}

// ---- declarative cross-field constraints ----

TEST(Registry, ConstraintViolationsSurfaceAsTypedDiagnostics) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  // kept > group is now a schema-level rule, visible before any run.
  const Scenario* sparsity = registry.find("ext_sparsity");
  ASSERT_NE(sparsity, nullptr);
  ASSERT_FALSE(sparsity->schema.constraints().empty());
  EXPECT_THROW(sparsity->schema.bind({{"kept", "8"}, {"group", "4"}}),
               std::invalid_argument);
  // The detailed-fidelity size cap on gemm.
  const Scenario* gemm = registry.find("gemm");
  ASSERT_NE(gemm, nullptr);
  EXPECT_NO_THROW(
      gemm->schema.bind({{"fidelity", "detailed"}, {"size", "2048"}}));
  EXPECT_THROW(
      gemm->schema.bind({{"fidelity", "detailed"}, {"size", "4096"}}),
      std::invalid_argument);
  EXPECT_NO_THROW(
      gemm->schema.bind({{"fidelity", "analytic"}, {"size", "65536"}}));
}

TEST(Sweep, ConstraintViolationIsIsolatedToItsRow) {
  // A sweep mixing legal and illegal combinations: the illegal point gets
  // a row error naming the rule, the rest run.
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  SweepRequest request;
  request.scenario = "ext_sparsity";
  request.base_params = {{"group", "4"}};
  request.axes = {{"kept", {"2", "4", "8"}}};
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 3u);
  EXPECT_TRUE(results.rows[0].ok());
  EXPECT_TRUE(results.rows[1].ok());
  EXPECT_FALSE(results.rows[2].ok());
  EXPECT_NE(results.rows[2].error.find("kept <= group"),
            std::string::npos);
}

TEST(HardwareKnobs, MeshCapacityIsADeclaredConstraint) {
  ASSERT_FALSE(hardware_schema().constraints().empty());
  EXPECT_THROW(hardware_schema().bind({{"node_count", "64"}}),
               std::invalid_argument);
  EXPECT_NO_THROW(hardware_schema().bind({{"node_count", "64"},
                                          {"mesh_width", "8"},
                                          {"mesh_height", "8"}}));
}

TEST(Sweep, CacheGeometryKnobsAreSweepable) {
  // The ROADMAP's "not yet sweepable" knobs: shrinking L3 slices must
  // change analytic results (smaller stash working set => lower gflops on
  // a DRAM-pressured shape), proving the knob reaches the timing model.
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  SweepRequest request;
  request.scenario = "gemm";
  request.base_params = {{"size", "2048"}, {"nodes", "16"}};
  request.axes = {{"l3_slice_kib", {"64", "2048"}}};
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 2u);
  ASSERT_EQ(results.failures(), 0u);
  const exp::Metric* small = results.rows[0].result.find("gflops");
  const exp::Metric* big = results.rows[1].result.find("gflops");
  ASSERT_NE(small, nullptr);
  ASSERT_NE(big, nullptr);
  EXPECT_LT(small->value, big->value);
}

// ---- cross-schema constraints ----

TEST(Registry, NodesVersusNodeCountIsADeclaredCrossRule) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  for (const char* name : {"gemm", "hpl", "baselines", "graph"}) {
    const Scenario* scenario = registry.find(name);
    ASSERT_NE(scenario, nullptr) << name;
    const bool declared = std::any_of(
        scenario->cross_rules.begin(), scenario->cross_rules.end(),
        [](const CrossRule& rule) {
          return rule.rule == "nodes <= node_count";
        });
    EXPECT_TRUE(declared) << name;
  }
}

TEST(Sweep, CrossSchemaViolationFailsThePointWithTheRuleText) {
  // Explicit nodes beyond the instantiated hardware used to clamp
  // silently; now the point fails naming the declared rule, and the legal
  // points of the same sweep still run.
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  SweepRequest request;
  request.scenario = "gemm";
  request.base_params = {{"size", "512"}, {"node_count", "4"}};
  request.axes = {{"nodes", {"2", "4", "8"}}};
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 3u);
  EXPECT_TRUE(results.rows[0].ok());
  EXPECT_TRUE(results.rows[1].ok());
  ASSERT_FALSE(results.rows[2].ok());
  EXPECT_NE(results.rows[2].error.find("nodes <= node_count"),
            std::string::npos);
}

TEST(Sweep, ZeroDimensionManifestIsOneErrorRowNotAnAbort) {
  // batch = seq_len = 2^32 would wrap tokens to 0, and literal 2^22 dims
  // would wrap a GEMM's FLOPs. Lowering rejects both with a GraphError
  // naming what overflowed; the sweep records each in its own row, and
  // the valid point still runs.
  const std::string tokens = overflow_manifests::wrapping_tokens();
  const std::string flops = overflow_manifests::wrapping_flops();
  SweepRequest request;
  request.scenario = "graph";
  request.axes = {{"model_file", {tokens, flops, "tiny"}}};
  const SweepResults results =
      run_sweep(ScenarioRegistry::builtin(), request);
  ASSERT_EQ(results.rows.size(), 3u);
  ASSERT_FALSE(results.rows[0].ok());
  EXPECT_NE(results.rows[0].error.find("tokens (batch x seq_len) "
                                       "4294967296 x 4294967296 overflows"),
            std::string::npos)
      << results.rows[0].error;
  ASSERT_FALSE(results.rows[1].ok());
  EXPECT_NE(results.rows[1].error.find("op 'mm': FLOPs"), std::string::npos)
      << results.rows[1].error;
  EXPECT_TRUE(results.rows[2].ok()) << results.rows[2].error;

  std::ostringstream out;
  write_csv(out, results);
  std::vector<std::string> lines;
  std::istringstream csv(out.str());
  for (std::string line; std::getline(csv, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // header + two error rows + one good row
  EXPECT_NE(lines[1].find("overflows 64 bits"), std::string::npos);
  EXPECT_NE(lines[2].find("overflows 64 bits"), std::string::npos);
  EXPECT_EQ(lines[3].rfind("tiny,1,16,16,", 0), 0u) << lines[3];
  EXPECT_EQ(lines[3].back(), ',');  // empty error column
  std::remove(tokens.c_str());
  std::remove(flops.c_str());
}

TEST(Sweep, UnsetNodesStillFollowsNodeCountUnderTheCrossRule) {
  // The rule only bites explicitly-set nodes; the defaulting behaviour of
  // UnsetNodesFollowsNodeCount is unchanged.
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  SweepRequest request;
  request.scenario = "gemm";
  request.base_params = {{"size", "512"}, {"node_count", "2"}};
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 1u);
  EXPECT_TRUE(results.rows[0].ok()) << results.rows[0].error;
}

// ---- fidelity=sampled through the driver ----

TEST(Sweep, SampledFidelityRunsBeyondTheDetailedCap) {
  // The acceptance point: every GEMM dimension beyond 2048 — rejected by
  // fidelity=detailed — completes under fidelity=sampled with error-bar
  // metrics attached.
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  SweepRequest request;
  request.scenario = "gemm";
  request.base_params = {{"size", "2176"},   {"tile", "128"},
                         {"nodes", "1"},     {"fidelity", "sampled"},
                         {"sample_frac", "0.000001"}};
  const SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 1u);
  ASSERT_TRUE(results.rows[0].ok()) << results.rows[0].error;
  const exp::Metric* makespan = results.rows[0].result.find("makespan_ms");
  const exp::Metric* ci = results.rows[0].result.find("makespan_ms_ci95");
  const exp::Metric* sampled =
      results.rows[0].result.find("sampled_tiles");
  const exp::Metric* total = results.rows[0].result.find("total_tiles");
  ASSERT_NE(makespan, nullptr);
  ASSERT_NE(ci, nullptr);
  ASSERT_NE(sampled, nullptr);
  ASSERT_NE(total, nullptr);
  EXPECT_GT(makespan->value, 0.0);
  EXPECT_GT(ci->value, 0.0);
  EXPECT_EQ(total->value, 17.0 * 17.0 * 17.0);
  EXPECT_LT(sampled->value, total->value);

  // The same size through fidelity=detailed is a typed row error that
  // points at the sampled remedy.
  request.base_params["fidelity"] = "detailed";
  const SweepResults rejected = run_sweep(registry, request);
  ASSERT_EQ(rejected.rows.size(), 1u);
  ASSERT_FALSE(rejected.rows[0].ok());
  EXPECT_NE(rejected.rows[0].error.find("size <= 2048"),
            std::string::npos);
}

TEST(Sweep, SampledRowsDoNotDependOnTheWorkerCount) {
  // sample_workers moves tile batches onto host threads and nothing else;
  // 0, the default, means one worker per hardware thread.
  SweepRequest request;
  request.scenario = "graph";
  request.base_params = {{"model_file", "tiny"}, {"fidelity", "sampled"}};
  request.axes = {{"sample_workers", {"0", "1", "3"}}};
  const SweepResults results =
      run_sweep(ScenarioRegistry::builtin(), request);
  ASSERT_EQ(results.rows.size(), 3u);
  const std::vector<exp::Metric>& one = results.rows[1].result.metrics;
  ASSERT_NE(results.rows[1].result.find("sampled_tiles"), nullptr);
  for (const SweepRow& row : results.rows) {
    ASSERT_TRUE(row.ok()) << row.error;
    ASSERT_EQ(row.result.metrics.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(row.result.metrics[i].name, one[i].name);
      EXPECT_EQ(row.result.metrics[i].value, one[i].value)
          << one[i].name << " at sample_workers="
          << row.params.at("sample_workers");
    }
  }
}

TEST(Cli, ParsesStoreCompactCommand) {
  const CliParse parse =
      parse_cli({"store", "compact", "--store", "campaign.mdb"});
  ASSERT_TRUE(parse.ok) << parse.error;
  EXPECT_EQ(parse.options.command, CliCommand::kStoreCompact);
  EXPECT_EQ(parse.options.store_path, "campaign.mdb");

  EXPECT_FALSE(parse_cli({"store"}).ok);
  EXPECT_FALSE(parse_cli({"store", "compact"}).ok);  // needs --store
  EXPECT_FALSE(parse_cli({"store", "vacuum", "--store", "x"}).ok);
  EXPECT_FALSE(
      parse_cli({"store", "compact", "--store", "x", "--bogus"}).ok);
  const CliParse help = parse_cli({"store", "--help"});
  ASSERT_TRUE(help.ok);
  EXPECT_TRUE(help.options.show_help);
}

}  // namespace
}  // namespace maco::driver

// The observability layer: zero-overhead profiling, counter collection,
// trace emission and the `macosim trace` renderer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/config.hpp"
#include "driver/scenario_registry.hpp"
#include "driver/sweep_runner.hpp"
#include "driver/trace_cmd.hpp"
#include "exp/backend.hpp"
#include "obs/collector.hpp"
#include "obs/host_profile.hpp"
#include "obs/observation.hpp"
#include "obs/trace_writer.hpp"
#include "util/json.hpp"

namespace maco::obs {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  fs::remove_all(path);
  return path;
}

core::TimingOptions small_gemm(unsigned nodes) {
  core::TimingOptions options;
  options.shape = {128, 128, 128};
  options.active_nodes = nodes;
  return options;
}

// ---- zero overhead: observing a run never changes its timing ----

TEST(ObsZeroOverhead, ObservedGemmMakespanIsBitIdentical) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const auto plain =
      exp::make_backend(exp::Fidelity::kDetailed, config)
          ->run(small_gemm(2));

  RunObservation observation;
  observation.want_counters = true;
  observation.want_trace = true;
  const auto observed =
      exp::make_backend(exp::Fidelity::kDetailed, config)
          ->run(small_gemm(2), &observation);

  EXPECT_EQ(plain.makespan_ps, observed.makespan_ps);
  EXPECT_EQ(plain.total_gflops, observed.total_gflops);
  EXPECT_FALSE(observation.counters.empty());
  EXPECT_FALSE(observation.spans.empty());
}

TEST(ObsZeroOverhead, SameSeedCounterDumpsAreBitIdentical) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  RunObservation first;
  first.want_counters = true;
  exp::make_backend(exp::Fidelity::kDetailed, config)
      ->run(small_gemm(2), &first);
  RunObservation second;
  second.want_counters = true;
  exp::make_backend(exp::Fidelity::kDetailed, config)
      ->run(small_gemm(2), &second);
  EXPECT_EQ(first.counters, second.counters);
}

// ---- collector: dotted names and derived metrics ----

// A counter name with its component index replaced by the catalogue's
// letter: "node1.vm.stlb.hits" -> "nodeN.vm.stlb.hits".
std::string catalogue_name(const std::string& name) {
  static const std::pair<std::string_view, char> kIndexed[] = {
      {"node", 'N'}, {"ccm", 'S'}, {"dram", 'D'}, {"noc.link", 'L'}};
  for (const auto& [prefix, letter] : kIndexed) {
    if (!name.starts_with(prefix)) continue;
    const std::size_t digits =
        name.find_first_not_of("0123456789", prefix.size());
    if (digits == prefix.size()) continue;
    return std::string(prefix) + letter + name.substr(digits);
  }
  return name;
}

TEST(ObsCollector, PublishesDottedCounterNames) {
  // Link recording switches on at machine construction, from the config's
  // profile mode (the `profile` hardware knob on the driver path).
  core::SystemConfig config = core::SystemConfig::maco_default();
  config.profile = core::ProfileMode::kCounters;
  config.dram.kind = mem::DramKind::kQueued;
  config.icnt = noc::IcntKind::kFlit;
  RunObservation observation;
  observation.want_counters = true;
  exp::make_backend(exp::Fidelity::kDetailed, config)
      ->run(small_gemm(2), &observation);
  EXPECT_TRUE(observation.noc.present());

  // The set of names, indices stripped, is the docs/OBSERVABILITY.md
  // counter catalogue: nothing the catalogue omits, nothing it lists but
  // the machine does not count.
  std::set<std::string> names;
  for (const auto& entry : observation.counters) {
    names.insert(catalogue_name(entry.first));
  }
  const std::set<std::string> catalogue{
      "nodeN.cpu.mtq.enqueues",
      "nodeN.cpu.mtq.backoffs",
      "nodeN.vm.stlb.hits",
      "nodeN.vm.stlb.misses",
      "nodeN.vm.stlb.evictions",
      "nodeN.vm.walker.walks",
      "nodeN.vm.walker.pte_reads",
      "nodeN.vm.walker.walk_cache_hits",
      "nodeN.mmae.matlb.hits",
      "nodeN.mmae.matlb.misses",
      "nodeN.mmae.matlb.retired",
      "nodeN.mmae.matlb.late_predictions",
      "ccmS.l3.hits",
      "ccmS.l3.misses",
      "ccmS.l3.evictions",
      "ccmS.l3.writebacks",
      "ccmS.stash_hits",
      "ccmS.stash_fills",
      "dramD.requests",
      "dramD.bytes",
      "dramD.busy_ps",
      "dramD.row_hits",
      "dramD.row_misses",
      "dramD.row_conflicts",
      "noc.linkL.flits",
      "noc.linkL.busy_ps",
      "noc.icnt.transfers",
      "engine.events",
  };
  EXPECT_EQ(names, catalogue);
}

TEST(ObsCollector, SumCountersMatchesPrefixAndSuffix) {
  std::map<std::string, std::uint64_t> counters{
      {"node0.vm.stlb.hits", 3},
      {"node1.vm.stlb.hits", 4},
      {"node0.vm.stlb.misses", 5},
      {"ccm0.l3.hits", 100},
  };
  EXPECT_EQ(sum_counters(counters, "node", ".vm.stlb.hits"), 7u);
  EXPECT_EQ(sum_counters(counters, "node", ".vm.stlb.misses"), 5u);
  EXPECT_EQ(sum_counters(counters, "ccm", ".l3.hits"), 100u);
  EXPECT_EQ(sum_counters(counters, "dram", ".bytes"), 0u);
}

TEST(ObsCollector, HitRateMetricsOnlyForComponentsWithTraffic) {
  RunObservation observation;
  observation.counters["ccm0.l3.hits"] = 3;
  observation.counters["ccm0.l3.misses"] = 1;
  // The mATLB never saw traffic (matlb=false): no matlb_hit_rate row.
  observation.counters["node0.mmae.matlb.hits"] = 0;
  observation.counters["node0.mmae.matlb.misses"] = 0;
  exp::ScenarioResult result;
  add_counter_metrics(result, observation);
  const exp::Metric* l3 = result.find("l3_hit_rate");
  ASSERT_NE(l3, nullptr);
  EXPECT_DOUBLE_EQ(l3->value, 0.75);
  EXPECT_EQ(result.find("matlb_hit_rate"), nullptr);
}

TEST(ObsCollector, NocLinkUtilizationPercentiles) {
  RunObservation observation;
  observation.noc.width = 2;
  observation.noc.height = 1;
  observation.noc.window_ps = 1000;
  observation.noc.links.resize(2 * kLinksPerNode);
  observation.noc.links[0] = LinkTrafficRec{10, 500};  // 0.5 util
  observation.noc.links[1] = LinkTrafficRec{10, 100};  // 0.1 util
  exp::ScenarioResult result;
  add_counter_metrics(result, observation);
  const exp::Metric* max_util = result.find("noc_max_link_util");
  ASSERT_NE(max_util, nullptr);
  EXPECT_DOUBLE_EQ(max_util->value, 0.5);
  ASSERT_NE(result.find("noc_p95_link_util"), nullptr);
}

// ---- observation merging ----

TEST(ObsObservation, MergeSumsCountersAndOffsetsSpans) {
  RunObservation base;
  base.counters["dram0.bytes"] = 10;
  base.spans.push_back(SpanRec{"os", "job0", 0, 100});
  base.noc.width = 1;
  base.noc.height = 1;
  base.noc.window_ps = 100;
  base.noc.links.resize(kLinksPerNode);
  base.noc.links[0] = LinkTrafficRec{2, 50};

  RunObservation layer;
  layer.counters["dram0.bytes"] = 5;
  layer.counters["ccm0.l3.hits"] = 7;
  layer.spans.push_back(SpanRec{"node0.mmae", "ma_mma", 10, 20});
  layer.noc.width = 1;
  layer.noc.height = 1;
  layer.noc.window_ps = 40;
  layer.noc.links.resize(kLinksPerNode);
  layer.noc.links[0] = LinkTrafficRec{3, 25};

  base.merge(layer, 1000);
  EXPECT_EQ(base.counters["dram0.bytes"], 15u);
  EXPECT_EQ(base.counters["ccm0.l3.hits"], 7u);
  ASSERT_EQ(base.spans.size(), 2u);
  EXPECT_EQ(base.spans[1].start, 1010u);
  EXPECT_EQ(base.spans[1].end, 1020u);
  EXPECT_EQ(base.noc.links[0].flits, 5u);
  EXPECT_EQ(base.noc.links[0].busy_ps, 75u);
  EXPECT_EQ(base.noc.window_ps, 140u);
}

// ---- trace writer ----

TEST(ObsTraceWriter, EmitsValidJsonWithEscapedStrings) {
  RunObservation observation;
  observation.spans.push_back(
      SpanRec{"node0.mmae", "fault: \"bad\" \\ page\nretry", 1'000'000,
              3'000'000});
  // Track names reach the file as tid and may carry quotes too.
  observation.spans.push_back(
      SpanRec{"track \"zero\"", "tab\there", 0, 100});
  const std::string json = to_perfetto_json(observation);
  const util::JsonValue doc = util::parse_json(json);  // throws on bad JSON
  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  const util::JsonValue& event = events->as_array()[0];
  EXPECT_EQ(event.find("name")->as_string(),
            "fault: \"bad\" \\ page\nretry");
  EXPECT_EQ(event.find("ph")->as_string(), "X");
  EXPECT_DOUBLE_EQ(event.find("ts")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(event.find("dur")->as_number(), 2.0);
  const util::JsonValue& quoted = events->as_array()[1];
  EXPECT_EQ(quoted.find("tid")->as_string(), "track \"zero\"");
  EXPECT_EQ(quoted.find("name")->as_string(), "tab\there");
}

TEST(ObsTraceWriter, EmitsNocSidecarSkippingIdleLinks) {
  RunObservation observation;
  observation.spans.push_back(SpanRec{"t", "s", 0, 10});
  observation.noc.width = 2;
  observation.noc.height = 1;
  observation.noc.window_ps = 1000;
  observation.noc.links.resize(2 * kLinksPerNode);
  observation.noc.links[0] = LinkTrafficRec{4, 200};   // node0 eject
  observation.noc.links[8] = LinkTrafficRec{6, 300};   // node1 east
  const util::JsonValue doc =
      util::parse_json(to_perfetto_json(observation));
  const util::JsonValue* noc = doc.find("maco")->find("noc");
  ASSERT_NE(noc, nullptr);
  EXPECT_EQ(noc->find("width")->as_number(), 2.0);
  const auto& links = noc->find("links")->as_array();
  ASSERT_EQ(links.size(), 2u);  // idle links are omitted
  EXPECT_EQ(links[0].find("node")->as_number(), 0.0);
  EXPECT_EQ(links[0].find("dir")->as_string(), "eject");
  EXPECT_EQ(links[1].find("node")->as_number(), 1.0);
  EXPECT_EQ(links[1].find("dir")->as_string(), "east");
}

// ---- host self-profiling ----

TEST(ObsHostProfile, ScopedPhasesAccumulateIntoInstalledSink) {
  HostPhaseProfile profile;
  {
    ScopedHostProfile guard(&profile);
    ScopedPhase setup("setup");
    setup.stop();
    { ScopedPhase sim("sim"); }
  }
  EXPECT_EQ(profile.phases().size(), 2u);
  EXPECT_GE(profile.ms("setup"), 0.0);
  EXPECT_GE(profile.ms("sim"), 0.0);
  EXPECT_EQ(profile.ms("collect"), 0.0);
}

TEST(ObsHostProfile, ScopedPhaseIsANoOpWithoutASink) {
  { ScopedPhase phase("sim"); }  // must not crash or record anywhere
  HostPhaseProfile profile;
  {
    ScopedHostProfile guard(&profile);
    ScopedHostProfile inner(nullptr);  // nested removal
    { ScopedPhase phase("sim"); }
  }
  EXPECT_TRUE(profile.phases().empty());
}

// ---- the `macosim trace` renderer ----

TEST(TraceCmd, RendersGanttFromWriterOutput) {
  RunObservation observation;
  observation.spans.push_back(SpanRec{"node0.mmae", "gemm", 0, 2'000'000});
  observation.spans.push_back(SpanRec{"os", "job0", 0, 4'000'000});
  const driver::TraceRender render =
      driver::render_trace(to_perfetto_json(observation), 40);
  EXPECT_NE(render.gantt.find("2 span(s) on 2 track(s)"),
            std::string::npos);
  EXPECT_NE(render.gantt.find("node0.mmae"), std::string::npos);
  EXPECT_NE(render.gantt.find("os"), std::string::npos);
  EXPECT_TRUE(render.noc_text.empty());  // no NoC sidecar in this trace
  EXPECT_TRUE(render.noc_csv.empty());
}

TEST(TraceCmd, RendersNocHeatmapAndCsv) {
  RunObservation observation;
  observation.spans.push_back(SpanRec{"t", "s", 0, 1'000'000});
  observation.noc.width = 2;
  observation.noc.height = 2;
  observation.noc.window_ps = 1'000'000;
  observation.noc.links.resize(4 * kLinksPerNode);
  observation.noc.links[3 * kLinksPerNode + 3] =
      LinkTrafficRec{8, 500'000};  // node3 east, 50% busy
  const driver::TraceRender render =
      driver::render_trace(to_perfetto_json(observation), 40);
  EXPECT_NE(render.noc_text.find("NoC 2x2 link utilization"),
            std::string::npos);
  EXPECT_NE(render.noc_text.find("50.0"), std::string::npos);
  EXPECT_NE(render.noc_text.find("hottest links:"), std::string::npos);
  EXPECT_NE(render.noc_csv.find("node,x,y,dir,flits,busy_ps,util"),
            std::string::npos);
  EXPECT_NE(render.noc_csv.find("3,1,1,east,8,500000,0.5"),
            std::string::npos);
}

TEST(TraceCmd, AcceptsBareEventArraysAndNumericTids) {
  const std::string trace =
      R"([{"name": "a", "ph": "X", "tid": 7, "ts": 0, "dur": 5},)"
      R"( {"name": "b", "ph": "B", "tid": 7, "ts": 1}])";
  const driver::TraceRender render = driver::render_trace(trace, 40);
  // Only the complete ('X') event renders; the numeric tid gains a prefix.
  EXPECT_NE(render.gantt.find("1 span(s) on 1 track(s)"),
            std::string::npos);
  EXPECT_NE(render.gantt.find("tid7"), std::string::npos);
}

TEST(TraceCmd, RejectsDocumentsThatAreNotChromeTraces) {
  EXPECT_THROW(driver::render_trace("{\"rows\": []}", 40),
               std::runtime_error);
  EXPECT_THROW(driver::render_trace("not json at all", 40),
               std::runtime_error);
}

// The message render_trace throws for `trace`, or "" when it renders.
std::string render_error(const std::string& trace) {
  try {
    driver::render_trace(trace, 40);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(TraceCmd, RejectsOutOfRangeNumbers) {
  // A valid trace with one NoC link; each case corrupts one number, which
  // the renderer would otherwise cast to an integer unchecked.
  const std::string valid =
      R"({"traceEvents": [{"name": "s", "ph": "X", "tid": 7, "ts": 0,)"
      R"( "dur": 1}], "maco": {"noc": {"width": 4, "height": 4,)"
      R"( "window_ps": 1000, "links": [{"node": 5, "dir": "east",)"
      R"( "flits": 3, "busy_ps": 500}]}}})";
  ASSERT_EQ(render_error(valid), "");
  const struct {
    std::string from;
    std::string to;
    std::string member;
  } cases[] = {
      {R"("node": 5)", R"("node": -1)", "'node'"},
      {R"("node": 5)", R"("node": 16)", "'node'"},  // off the 4x4 grid
      {R"("flits": 3)", R"("flits": -3)", "'flits'"},
      {R"("busy_ps": 500)", R"("busy_ps": 1e30)", "'busy_ps'"},
      {R"("window_ps": 1000)", R"("window_ps": -5)", "'window_ps'"},
      {R"("width": 4)", R"("width": 2.5)", "'width'"},
      {R"("width": 4)", R"("width": 100000)", "'width'"},
      {R"("height": 4)", R"("height": 0)", "'height'"},
      {R"("tid": 7)", R"("tid": 1e300)", "'tid'"},
      {R"("ts": 0)", R"("ts": -1)", "'ts'"},
      {R"("dur": 1)", R"("dur": 1e30)", "'dur'"},
  };
  for (const auto& c : cases) {
    std::string trace = valid;
    trace.replace(trace.find(c.from), c.from.size(), c.to);
    EXPECT_NE(render_error(trace).find(c.member), std::string::npos)
        << c.to << ": " << render_error(trace);
  }
  // Each time fits the picosecond clock; the span's end does not.
  EXPECT_NE(render_error(R"([{"name": "s", "ph": "X", "tid": 1,)"
                         R"( "ts": 1e13, "dur": 1e13}])")
                .find("overflows"),
            std::string::npos);
}

TEST(TraceCmd, ReportsEmptyTracesInsteadOfCrashing) {
  const driver::TraceRender render =
      driver::render_trace("{\"traceEvents\": []}", 40);
  EXPECT_NE(render.gantt.find("no complete ('X') events"),
            std::string::npos);
}

// ---- driver integration: profile knob, trace files, cross rules ----

driver::SweepRequest gemm_point(const std::string& profile) {
  driver::SweepRequest request;
  request.scenario = "gemm";
  request.base_params = {{"fidelity", "detailed"},
                         {"size", "128"},
                         {"nodes", "2"},
                         {"profile", profile}};
  return request;
}

TEST(ObsDriver, ProfileCountersAddsMetricsWithoutChangingTiming) {
  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  const driver::SweepResults off =
      driver::run_sweep(registry, gemm_point("off"));
  const driver::SweepResults counters =
      driver::run_sweep(registry, gemm_point("counters"));
  ASSERT_EQ(off.failures(), 0u);
  ASSERT_EQ(counters.failures(), 0u);

  const exp::Metric* off_ms = off.rows[0].result.find("makespan_ms");
  const exp::Metric* counters_ms =
      counters.rows[0].result.find("makespan_ms");
  ASSERT_NE(off_ms, nullptr);
  ASSERT_NE(counters_ms, nullptr);
  EXPECT_EQ(off_ms->value, counters_ms->value);  // bit-identical timing

  EXPECT_EQ(off.rows[0].result.find("l3_hit_rate"), nullptr);
  const exp::Metric* l3 = counters.rows[0].result.find("l3_hit_rate");
  ASSERT_NE(l3, nullptr);
  EXPECT_GT(l3->value, 0.0);
  EXPECT_LE(l3->value, 1.0);
  EXPECT_NE(counters.rows[0].result.find("matlb_hit_rate"), nullptr);
  EXPECT_NE(counters.rows[0].result.find("noc_max_link_util"), nullptr);
}

TEST(ObsDriver, ProfileCountersOffAnalyticPathFailsWithTheRule) {
  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  driver::SweepRequest request = gemm_point("counters");
  request.base_params["fidelity"] = "analytic";
  const driver::SweepResults results = driver::run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 1u);
  EXPECT_FALSE(results.rows[0].ok());
  EXPECT_NE(results.rows[0].error.find("profile=counters requires"),
            std::string::npos);
}

TEST(ObsDriver, TraceOutWritesOneParseableFilePerPoint) {
  const std::string dir = temp_dir("obs_trace_out");
  driver::SweepRequest request = gemm_point("counters");
  request.trace_out = dir;
  const driver::SweepResults results = driver::run_sweep(
      driver::ScenarioRegistry::builtin(), request);
  ASSERT_EQ(results.failures(), 0u);
  const fs::path file = fs::path(dir) / "gemm_p0.trace.json";
  ASSERT_TRUE(fs::exists(file));
  std::ifstream in(file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::JsonValue doc = util::parse_json(buffer.str());
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_FALSE(doc.find("traceEvents")->as_array().empty());
  EXPECT_NE(doc.find("maco"), nullptr);  // counters add the NoC sidecar
}

TEST(ObsDriver, ServeTraceCarriesInstanceAndRequestSpans) {
  driver::SweepRequest request;
  request.scenario = "serve";
  request.base_params = {{"fidelity", "analytic"},
                         {"model", "tiny"},
                         {"requests", "200"}};
  const std::string dir = temp_dir("obs_serve_trace");
  request.trace_out = dir;
  const driver::SweepResults results = driver::run_sweep(
      driver::ScenarioRegistry::builtin(), request);
  ASSERT_EQ(results.failures(), 0u);
  std::ifstream in(fs::path(dir) / "serve_p0.trace.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::JsonValue doc = util::parse_json(buffer.str());
  bool instance_span = false;
  bool request_span = false;
  for (const util::JsonValue& event :
       doc.find("traceEvents")->as_array()) {
    const std::string& tid = event.find("tid")->as_string();
    if (tid.rfind("instance", 0) == 0) instance_span = true;
    if (tid.rfind("tenant", 0) == 0) request_span = true;
  }
  EXPECT_TRUE(instance_span);
  EXPECT_TRUE(request_span);
}

}  // namespace
}  // namespace maco::obs

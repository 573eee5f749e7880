// The typed experiment API (src/exp/): parameter values, declarative
// schemas, fidelity backends and structured-result serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "driver/scenario_registry.hpp"
#include "driver/sweep_runner.hpp"
#include "exp/backend.hpp"
#include "exp/param_schema.hpp"
#include "exp/param_value.hpp"
#include "exp/results.hpp"
#include "util/json.hpp"

namespace maco::exp {
namespace {

ParamSchema test_schema() {
  ParamSchema s;
  s.u64("size", 4096, "matrix size", 64, 65536);
  s.f64("efficiency", 0.72, "a ratio", 0.0, 1.0);
  s.flag("matlb", true, "a toggle");
  s.enumerant("precision", "fp64", {"fp64", "fp32", "fp16"}, "a choice");
  s.str("label", "none", "free text");
  return s;
}

// ---- ParamValue ----

TEST(ParamValue, TypedAccessorsAndCanonicalText) {
  EXPECT_EQ(ParamValue::u64(42).as_u64(), 42u);
  EXPECT_EQ(ParamValue::u64(42).to_string(), "42");
  EXPECT_DOUBLE_EQ(ParamValue::f64(0.5).as_f64(), 0.5);
  EXPECT_EQ(ParamValue::f64(0.5).to_string(), "0.5");
  EXPECT_EQ(ParamValue::f64(2.0).to_string(), "2");
  // Large integral doubles must not collapse into scientific notation
  // (parse(to_string()) round-trips).
  EXPECT_EQ(ParamValue::f64(12345678.0).to_string(), "12345678");
  EXPECT_TRUE(ParamValue::boolean(true).as_bool());
  EXPECT_EQ(ParamValue::boolean(false).to_string(), "false");
  EXPECT_EQ(ParamValue::enumerant("fp32").as_str(), "fp32");
  EXPECT_EQ(ParamValue::str("x").type(), ParamType::kString);
  EXPECT_EQ(ParamValue::enumerant("x").type(), ParamType::kEnum);
  // u64 widens to f64; everything else is strict.
  EXPECT_DOUBLE_EQ(ParamValue::u64(7).as_f64(), 7.0);
  EXPECT_THROW(ParamValue::u64(7).as_bool(), std::logic_error);
  EXPECT_THROW(ParamValue::boolean(true).as_u64(), std::logic_error);
  EXPECT_THROW(ParamValue::f64(1.5).as_str(), std::logic_error);
}

// ---- ParamSchema::parse (single-value validation) ----

TEST(ParamSchema, ParsesWellTypedValues) {
  const ParamSchema s = test_schema();
  EXPECT_EQ(s.parse("size", "128").as_u64(), 128u);
  EXPECT_DOUBLE_EQ(s.parse("efficiency", "0.9").as_f64(), 0.9);
  EXPECT_TRUE(s.parse("matlb", "on").as_bool());
  EXPECT_FALSE(s.parse("matlb", "0").as_bool());
  EXPECT_EQ(s.parse("precision", "fp16").as_str(), "fp16");
  EXPECT_EQ(s.parse("label", "anything at all").as_str(),
            "anything at all");
}

TEST(ParamSchema, RejectsWrongTypes) {
  const ParamSchema s = test_schema();
  EXPECT_THROW(s.parse("size", "big"), std::invalid_argument);
  EXPECT_THROW(s.parse("size", "12.5"), std::invalid_argument);
  EXPECT_THROW(s.parse("size", "-1"), std::invalid_argument);
  EXPECT_THROW(s.parse("efficiency", "fast"), std::invalid_argument);
  EXPECT_THROW(s.parse("matlb", "maybe"), std::invalid_argument);
}

TEST(ParamSchema, RejectsOutOfRangeValues) {
  const ParamSchema s = test_schema();
  EXPECT_THROW(s.parse("size", "63"), std::invalid_argument);
  EXPECT_THROW(s.parse("size", "65537"), std::invalid_argument);
  EXPECT_THROW(s.parse("efficiency", "1.01"), std::invalid_argument);
  EXPECT_THROW(s.parse("efficiency", "-0.5"), std::invalid_argument);
  // NaN compares false to any bound and must not slip through; infinities
  // are equally non-physical.
  EXPECT_THROW(s.parse("efficiency", "nan"), std::invalid_argument);
  EXPECT_THROW(s.parse("efficiency", "inf"), std::invalid_argument);
  // Boundary values are inclusive.
  EXPECT_EQ(s.parse("size", "64").as_u64(), 64u);
  EXPECT_DOUBLE_EQ(s.parse("efficiency", "1.0").as_f64(), 1.0);
}

TEST(ParamSchema, RejectsUnknownEnumChoiceAndUnknownName) {
  const ParamSchema s = test_schema();
  EXPECT_THROW(s.parse("precision", "fp8"), std::invalid_argument);
  EXPECT_THROW(s.parse("precision", "FP64"), std::invalid_argument);
  EXPECT_THROW(s.parse("no_such_param", "1"), std::invalid_argument);
  // The diagnostic names the parameter and the expectation.
  try {
    s.parse("precision", "fp8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("precision"), std::string::npos);
    EXPECT_NE(what.find("fp64|fp32|fp16"), std::string::npos);
  }
}

TEST(ParamSchema, EnumDefaultMustBeAChoice) {
  ParamSchema s;
  EXPECT_THROW(s.enumerant("mode", "turbo", {"slow", "fast"}, ""),
               std::logic_error);
}

TEST(ParamSchema, RejectsOutOfRangeDefaultsAtDeclaration) {
  ParamSchema s;
  EXPECT_THROW(s.u64("batch", 0, "", 1, 4096), std::logic_error);
  EXPECT_THROW(s.u64("huge", 5000, "", 1, 4096), std::logic_error);
  EXPECT_THROW(s.f64("eff", 1.5, "", 0.0, 1.0), std::logic_error);
}

TEST(ParamSchema, RejectsDuplicateDeclarations) {
  ParamSchema s;
  s.u64("size", 1, "");
  EXPECT_THROW(s.u64("size", 2, ""), std::logic_error);
  ParamSchema other;
  other.u64("size", 3, "");
  EXPECT_THROW(s.merge(other), std::logic_error);
}

// ---- ParamSchema::bind (whole-map validation + defaults) ----

TEST(ParamSchema, BindFillsDefaultsAndTracksExplicitKeys) {
  const ParamSchema s = test_schema();
  const ParamSet set = s.bind({{"size", "128"}, {"precision", "fp32"}});
  EXPECT_EQ(set.u64("size"), 128u);
  EXPECT_EQ(set.str("precision"), "fp32");
  // Defaults fill the rest.
  EXPECT_DOUBLE_EQ(set.f64("efficiency"), 0.72);
  EXPECT_TRUE(set.flag("matlb"));
  EXPECT_EQ(set.str("label"), "none");
  // Explicitness is tracked (hardware knobs only apply explicit values).
  EXPECT_TRUE(set.was_set("size"));
  EXPECT_FALSE(set.was_set("efficiency"));
}

TEST(ParamSchema, BindRejectsUnknownKeysAndBadValues) {
  const ParamSchema s = test_schema();
  EXPECT_THROW(s.bind({{"typo", "1"}}), std::invalid_argument);
  EXPECT_THROW(s.bind({{"size", "banana"}}), std::invalid_argument);
}

TEST(ParamSchema, CrossFieldConstraintEnforcedAtBind) {
  ParamSchema s;
  s.u64("kept", 2, "nonzeros kept", 1, 64);
  s.u64("group", 4, "group size", 1, 64);
  s.constrain("kept <= group", [](const ParamSet& p) {
    return p.u64("kept") <= p.u64("group");
  });
  EXPECT_NO_THROW(s.bind({{"kept", "4"}, {"group", "4"}}));
  // The diagnostic names the violated rule.
  try {
    s.bind({{"kept", "8"}, {"group", "4"}});
    FAIL() << "expected a constraint violation";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("kept <= group"),
              std::string::npos);
  }
  // Constraints see defaults too: an explicit value clashing with a
  // defaulted one is caught.
  EXPECT_THROW(s.bind({{"kept", "8"}}), std::invalid_argument);
  EXPECT_NO_THROW(s.defaults());
}

TEST(ParamSchema, MergeCopiesConstraints) {
  ParamSchema a;
  a.u64("lo", 1, "lower", 0, 100);
  a.u64("hi", 2, "upper", 0, 100);
  a.constrain("lo <= hi", [](const ParamSet& p) {
    return p.u64("lo") <= p.u64("hi");
  });
  ParamSchema b;
  b.merge(a);
  ASSERT_EQ(b.constraints().size(), 1u);
  EXPECT_EQ(b.constraints()[0].rule, "lo <= hi");
  EXPECT_THROW(b.bind({{"lo", "5"}, {"hi", "3"}}), std::invalid_argument);
}

TEST(ParamSchema, ConstraintNeedsAPredicate) {
  ParamSchema s;
  EXPECT_THROW(s.constrain("empty", nullptr), std::logic_error);
}

TEST(ParamSet, AccessorsThrowOnUndeclaredOrMistypedNames) {
  const ParamSet set = test_schema().defaults();
  EXPECT_THROW(set.u64("absent"), std::logic_error);
  EXPECT_THROW(set.u64("matlb"), std::logic_error);   // bool, not u64
  EXPECT_THROW(set.flag("size"), std::logic_error);   // u64, not bool
}

// ---- fidelity backends ----

TEST(Backend, NamesRoundTrip) {
  EXPECT_EQ(fidelity_name(Fidelity::kAnalytic), "analytic");
  EXPECT_EQ(fidelity_name(Fidelity::kDetailed), "detailed");
  EXPECT_EQ(parse_fidelity("analytic"), Fidelity::kAnalytic);
  EXPECT_EQ(parse_fidelity("detailed"), Fidelity::kDetailed);
  EXPECT_THROW(parse_fidelity("cycle_exact"), std::invalid_argument);
}

TEST(Backend, FactoryProducesMatchingFidelity) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  EXPECT_EQ(make_backend(Fidelity::kAnalytic, config)->fidelity(),
            Fidelity::kAnalytic);
  EXPECT_EQ(make_backend(Fidelity::kDetailed, config)->fidelity(),
            Fidelity::kDetailed);
}

TEST(Backend, DetailedRejectsAnalyticOnlyOptionsWithTypedErrors) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const auto detailed = make_backend(Fidelity::kDetailed, config);
  core::TimingOptions options;
  options.shape = sa::TileShape{128, 128, 128};
  options.active_nodes = 1;

  core::TimingOptions bad = options;
  bad.cooperative = true;
  EXPECT_THROW(detailed->run(bad), std::invalid_argument);
  bad = options;
  bad.use_stash_lock = false;
  EXPECT_THROW(detailed->run(bad), std::invalid_argument);
  bad = options;
  bad.shape = sa::TileShape{4096, 4096, 4096};  // beyond the detailed cap
  EXPECT_THROW(detailed->run(bad), std::invalid_argument);
  bad = options;
  bad.engine_overlap = 0.5;  // baseline-model knob
  EXPECT_THROW(detailed->run(bad), std::invalid_argument);
}

// Analytic and detailed backends must agree on a small GEMM within the
// cross-validation tolerance already asserted in test_crossvalidation.cpp
// (12 percentage points of efficiency; both high on a compute-bound size).
TEST(Backend, AnalyticAndDetailedAgreeOnSmallGemm) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const auto analytic = make_backend(Fidelity::kAnalytic, config);
  const auto detailed = make_backend(Fidelity::kDetailed, config);
  core::TimingOptions options;
  options.shape = sa::TileShape{256, 256, 256};
  options.active_nodes = 1;
  const double analytic_eff = analytic->run(options).mean_efficiency;
  const double detailed_eff = detailed->run(options).mean_efficiency;
  EXPECT_NEAR(detailed_eff, analytic_eff, 0.12)
      << "detailed " << detailed_eff << " vs analytic " << analytic_eff;
  EXPECT_GT(detailed_eff, 0.80);
  EXPECT_GT(analytic_eff, 0.80);
}

// The same agreement must hold end to end through the driver: one sweep
// with a fidelity axis, identical scenario parameters per point.
TEST(Backend, FidelitySweepAgreesThroughTheDriver) {
  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  driver::SweepRequest request;
  request.scenario = "gemm";
  request.base_params = {{"size", "256"}, {"nodes", "1"}};
  request.axes = {{"fidelity", {"analytic", "detailed"}}};
  const driver::SweepResults results = run_sweep(registry, request);
  ASSERT_EQ(results.rows.size(), 2u);
  ASSERT_EQ(results.failures(), 0u) << results.rows[0].error
                                    << results.rows[1].error;
  const Metric* analytic = results.rows[0].result.find("mean_efficiency");
  const Metric* detailed = results.rows[1].result.find("mean_efficiency");
  ASSERT_NE(analytic, nullptr);
  ASSERT_NE(detailed, nullptr);
  EXPECT_NEAR(detailed->value, analytic->value, 0.12);
}

TEST(Backend, DetailedRunsMultipleIndependentNodes) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const auto detailed = make_backend(Fidelity::kDetailed, config);
  core::TimingOptions options;
  options.shape = sa::TileShape{128, 128, 128};
  options.active_nodes = 2;
  const core::SystemTiming timing = detailed->run(options);
  ASSERT_EQ(timing.nodes.size(), 2u);
  // A 128^3 GEMM is cold-start and contention dominated; just require both
  // nodes to have genuinely computed (the agreement test covers accuracy).
  EXPECT_GT(timing.nodes[0].efficiency, 0.25);
  EXPECT_GT(timing.nodes[1].efficiency, 0.25);
  // Two nodes deliver more aggregate throughput than either alone.
  EXPECT_GT(timing.total_gflops, timing.nodes[0].gflops);
}

TEST(Backend, DetailedRunLayersAccumulatesAcrossLayers) {
  const core::SystemConfig config = core::SystemConfig::maco_default();
  const auto detailed = make_backend(Fidelity::kDetailed, config);
  core::TimingOptions options;
  options.active_nodes = 1;
  const sa::TileShape layer{128, 128, 128};

  options.shape = layer;
  const core::SystemTiming once = detailed->run(options);
  const core::SystemTiming twice = detailed->run_layers({layer, layer},
                                                        options);
  ASSERT_EQ(twice.nodes.size(), 1u);
  // Two identical layers double the work and the elapsed time; efficiency
  // and translation stats describe the whole sequence, not the last layer.
  EXPECT_EQ(twice.nodes[0].macs, 2 * once.nodes[0].macs);
  EXPECT_GT(twice.makespan_ps, once.makespan_ps);
  EXPECT_NEAR(twice.mean_efficiency, once.mean_efficiency, 0.05);
  EXPECT_NEAR(twice.translation.pages_per_tile,
              once.translation.pages_per_tile,
              0.01 * once.translation.pages_per_tile + 0.01);
  // One machine runs the whole list: its scheduler completes every
  // layer's task on every node.
  ASSERT_TRUE(twice.os.present);
  EXPECT_EQ(once.os.tasks_completed, 1u);
  EXPECT_EQ(twice.os.tasks_completed, 2u);
  options.active_nodes = 2;
  const core::SystemTiming wide =
      detailed->run_layers({layer, layer, layer}, options);
  ASSERT_EQ(wide.nodes.size(), 2u);
  EXPECT_EQ(wide.nodes[1].macs, 3 * once.nodes[0].macs);
  EXPECT_EQ(wide.os.tasks_completed, 6u);
}

// ---- structured results + golden serialization ----

TEST(Results, MetricLookupAndFormatting) {
  ScenarioResult result;
  result.add("gflops", 123.456789012345, "GFLOP/s");
  result.add("makespan_ms", 2.0, "ms", /*higher_is_better=*/false);
  ASSERT_NE(result.find("gflops"), nullptr);
  EXPECT_EQ(result.find("gflops")->unit, "GFLOP/s");
  EXPECT_FALSE(result.find("makespan_ms")->higher_is_better);
  EXPECT_EQ(result.find("nope"), nullptr);
  EXPECT_EQ(format_metric_value(2.0), "2");
  EXPECT_EQ(format_metric_value(123.456789012345), "123.456789");
  EXPECT_EQ(format_metric_value(-8.0), "-8");
}

driver::SweepResults golden_results() {
  driver::SweepResults results;
  results.scenario = "golden";
  results.param_columns = {"size"};
  results.metric_columns = {{"gflops", "GFLOP/s", true},
                            {"makespan_ms", "ms", false}};
  driver::SweepRow row0;
  row0.index = 0;
  row0.params = {{"size", "256"}};
  row0.result.add("gflops", 80.25, "GFLOP/s");
  row0.result.add("makespan_ms", 0.5, "ms", false);
  driver::SweepRow row1;
  row1.index = 1;
  row1.params = {{"size", "512"}};
  row1.error = "deliberate failure";
  results.rows = {row0, row1};
  return results;
}

TEST(Results, GoldenCsv) {
  std::ostringstream out;
  driver::write_csv(out, golden_results());
  EXPECT_EQ(out.str(),
            "size,gflops,makespan_ms,error\n"
            "256,80.25,0.5,\n"
            "512,,,deliberate failure\n");
}

TEST(Results, GoldenJson) {
  std::ostringstream out;
  driver::write_json(out, golden_results());
  EXPECT_EQ(
      out.str(),
      "{\"scenario\":\"golden\",\"columns\":["
      "{\"name\":\"gflops\",\"unit\":\"GFLOP/s\",\"higher_is_better\":true},"
      "{\"name\":\"makespan_ms\",\"unit\":\"ms\",\"higher_is_better\":false}"
      "],\"rows\":["
      "{\"params\":{\"size\":\"256\"},"
      "\"metrics\":{\"gflops\":80.25,\"makespan_ms\":0.5}},"
      "{\"params\":{\"size\":\"512\"},\"metrics\":{},"
      "\"error\":\"deliberate failure\"}"
      "]}\n");
}

TEST(Results, JsonEscapesControlCharacters) {
  EXPECT_EQ(util::json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(util::json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace maco::exp

// Serving subsystem: load generation, dynamic batching, the serve loop's
// virtual-time event simulation and its latency/goodput/fairness metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "driver/scenario_registry.hpp"
#include "driver/sweep_runner.hpp"
#include "exp/results.hpp"
#include "serve/server.hpp"
#include "util/latency_histogram.hpp"

namespace maco::serve {
namespace {

// ---- latency histogram ----

TEST(LatencyHistogram, QuantilesTrackAKnownDistribution) {
  util::LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  // Log-bucketed: ~2.2% relative resolution at 32 buckets/decade.
  EXPECT_NEAR(h.quantile(0.50), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 950.0 * 0.05);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.05);
  // Exact at the recorded extremes, monotone in between.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  double previous = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double value = h.quantile(q);
    EXPECT_GE(value, previous);
    previous = value;
  }
}

TEST(LatencyHistogram, MergeEqualsRecordingEverySample) {
  util::LatencyHistogram separate_a, separate_b, pooled;
  for (int i = 0; i < 500; ++i) {
    const double a = 0.1 * (i + 1);
    const double b = 3.0 * (i + 1);
    separate_a.record(a);
    separate_b.record(b);
    pooled.record(a);
    pooled.record(b);
  }
  separate_a.merge(separate_b);
  EXPECT_EQ(separate_a.count(), pooled.count());
  EXPECT_DOUBLE_EQ(separate_a.sum(), pooled.sum());
  EXPECT_DOUBLE_EQ(separate_a.min(), pooled.min());
  EXPECT_DOUBLE_EQ(separate_a.max(), pooled.max());
  EXPECT_EQ(separate_a.buckets(), pooled.buckets());
  EXPECT_DOUBLE_EQ(separate_a.quantile(0.95), pooled.quantile(0.95));
}

// ---- load generator ----

ArrivalConfig poisson_config(std::uint64_t seed, unsigned tenants = 2) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kPoisson;
  config.rate_rps = 500.0;
  config.requests = 400;
  config.tenants = tenants;
  config.seed = seed;
  return config;
}

TEST(LoadGenerator, SameSeedGivesBitIdenticalSchedules) {
  const std::vector<Request> first =
      LoadGenerator(poisson_config(7)).schedule();
  const std::vector<Request> second =
      LoadGenerator(poisson_config(7)).schedule();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].tenant, second[i].tenant);
    EXPECT_EQ(first[i].arrival_ps, second[i].arrival_ps);
  }
}

TEST(LoadGenerator, DifferentSeedsGiveDifferentTimelines) {
  const std::vector<Request> a = LoadGenerator(poisson_config(7)).schedule();
  const std::vector<Request> b = LoadGenerator(poisson_config(8)).schedule();
  ASSERT_EQ(a.size(), b.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_difference |= a[i].arrival_ps != b[i].arrival_ps;
  }
  EXPECT_TRUE(any_difference);
}

TEST(LoadGenerator, TenantCountDoesNotPerturbTheArrivalTimeline) {
  // Separate seeded streams for arrivals and tenant assignment: sweeping
  // `tenants` compares the same traffic divided differently.
  const std::vector<Request> one =
      LoadGenerator(poisson_config(7, /*tenants=*/1)).schedule();
  const std::vector<Request> four =
      LoadGenerator(poisson_config(7, /*tenants=*/4)).schedule();
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].arrival_ps, four[i].arrival_ps);
  }
}

TEST(LoadGenerator, UniformArrivalsAreEquallySpaced) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kUniform;
  config.rate_rps = 1000.0;  // 1 ms apart
  config.requests = 5;
  const std::vector<Request> schedule = LoadGenerator(config).schedule();
  ASSERT_EQ(schedule.size(), 5u);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i].arrival_ps, (i + 1) * sim::kPsPerMs);
  }
}

TEST(LoadGenerator, TraceReplaySortsAndPinsTenants) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kTrace;
  config.tenants = 2;
  config.trace = parse_trace(
      "# demo trace\n"
      "0.002 1\n"
      "0.001 0\n"
      "\n"
      "0.003 5  # tenant wraps modulo the tenant count\n"
      "0.002 0  # ties keep trace order\n"
      "0.0005\n"
      "0.002 3\n");
  const std::vector<Request> schedule = LoadGenerator(config).schedule();
  ASSERT_EQ(schedule.size(), 6u);
  EXPECT_EQ(schedule[0].arrival_ps, sim::kPsPerMs / 2);
  EXPECT_EQ(schedule[1].arrival_ps, 1 * sim::kPsPerMs);
  EXPECT_EQ(schedule[1].tenant, 0u);
  // The three arrivals at 2 ms, in trace order: tenants 1, 0, 3 % 2.
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(schedule[i].arrival_ps, 2 * sim::kPsPerMs);
  }
  EXPECT_EQ(schedule[2].tenant, 1u);
  EXPECT_EQ(schedule[3].tenant, 0u);
  EXPECT_EQ(schedule[4].tenant, 1u);
  EXPECT_EQ(schedule[5].arrival_ps, 3 * sim::kPsPerMs);
  EXPECT_EQ(schedule[5].tenant, 1u);  // 5 % 2
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i].id, i);  // ids follow sorted arrival order
  }
}

TEST(ParseTrace, RejectsMalformedLines) {
  EXPECT_THROW(parse_trace("not_a_number\n"), std::runtime_error);
  EXPECT_THROW(parse_trace("-1.0\n"), std::runtime_error);
  EXPECT_THROW(parse_trace("0.5 -2\n"), std::runtime_error);
  EXPECT_THROW(parse_trace("0.5 1 trailing\n"), std::runtime_error);
  EXPECT_TRUE(parse_trace("# only comments\n\n").empty());
}

// ---- dynamic batcher ----

TEST(DynamicBatcher, SealsBySizeAndByTimeout) {
  BatchPolicy policy;
  policy.max_batch = 3;
  policy.timeout_ps = 100;
  DynamicBatcher batcher(/*tenants=*/2, policy);

  // Tenant 0 reaches max_batch at t=2: sealed immediately, close at 2.
  batcher.enqueue(0, 0, 0);
  batcher.enqueue(1, 0, 1);
  batcher.enqueue(2, 0, 2);
  // Tenant 1 has one waiter from t=5; its forced close is due at 105.
  batcher.enqueue(3, 1, 5);
  ASSERT_TRUE(batcher.next_deadline().has_value());
  EXPECT_EQ(*batcher.next_deadline(), 105u);

  const std::vector<Batch> at_50 = batcher.collect(50);
  ASSERT_EQ(at_50.size(), 1u);
  EXPECT_EQ(at_50[0].tenant, 0u);
  EXPECT_EQ(at_50[0].size(), 3u);
  EXPECT_EQ(at_50[0].close_ps, 2u);
  EXPECT_FALSE(batcher.idle());

  const std::vector<Batch> at_200 = batcher.collect(200);
  ASSERT_EQ(at_200.size(), 1u);
  EXPECT_EQ(at_200[0].tenant, 1u);
  EXPECT_EQ(at_200[0].size(), 1u);
  EXPECT_EQ(at_200[0].close_ps, 105u);  // arrival + timeout, not `now`
  EXPECT_TRUE(batcher.idle());
  EXPECT_EQ(batcher.batches_sealed(), 2u);
  EXPECT_EQ(batcher.requests_admitted(), 4u);
}

TEST(DynamicBatcher, ZeroTimeoutDegeneratesToNoBatching) {
  BatchPolicy policy;
  policy.max_batch = 64;
  policy.timeout_ps = 0;
  DynamicBatcher batcher(1, policy);
  batcher.enqueue(0, 0, 10);
  batcher.enqueue(1, 0, 10);
  const std::vector<Batch> batches = batcher.collect(10);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 1u);
  EXPECT_EQ(batches[1].size(), 1u);
}

TEST(DynamicBatcher, BacklogSealsRepeatedlyInOneCollect) {
  BatchPolicy policy;
  policy.max_batch = 2;
  policy.timeout_ps = 10;
  DynamicBatcher batcher(1, policy);
  batcher.enqueue(0, 0, 0);  // seals {0,1} by size at t=1
  batcher.enqueue(1, 0, 1);
  batcher.enqueue(2, 0, 2);  // left waiting; forced close due at 12
  const std::vector<Batch> batches = batcher.collect(100);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[1].close_ps, 12u);
}

// ---- serve loop ----

ServeConfig small_serve_config() {
  ServeConfig config;
  config.arrival = poisson_config(3, /*tenants=*/2);
  config.arrival.rate_rps = 2000.0;
  config.arrival.requests = 1500;
  config.policy.max_batch = 8;
  config.policy.timeout_ps = 200 * sim::kPsPerUs;
  config.slo_ms = 10.0;
  return config;
}

std::unique_ptr<BatchCostModel> tiny_analytic_model(unsigned instances = 1) {
  CostModelOptions options;
  options.nodes = 16;
  options.instances = instances;
  return make_analytic_cost_model(core::SystemConfig::maco_default(),
                                  serve_model("tiny", 0), options);
}

void expect_reports_identical(const ServeReport& a, const ServeReport& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.latency_ms.quantile(0.5), b.latency_ms.quantile(0.5));
  EXPECT_EQ(a.latency_ms.quantile(0.95), b.latency_ms.quantile(0.95));
  EXPECT_EQ(a.latency_ms.quantile(0.99), b.latency_ms.quantile(0.99));
  EXPECT_EQ(a.latency_ms.buckets(), b.latency_ms.buckets());
}

TEST(Serve, OpenLoopIsDeterministicAcrossRuns) {
  const ServeConfig config = small_serve_config();
  const auto cost_a = tiny_analytic_model();
  const auto cost_b = tiny_analytic_model();
  const ServeReport a = serve(*cost_a, config);
  const ServeReport b = serve(*cost_b, config);
  EXPECT_EQ(a.completed, config.arrival.requests);
  expect_reports_identical(a, b);
}

TEST(Serve, ClosedLoopIsDeterministicAcrossRuns) {
  ServeConfig config = small_serve_config();
  config.closed_loop = true;
  config.concurrency = 32;
  config.think_s = 0.001;
  config.arrival.requests = 800;
  const auto cost_a = tiny_analytic_model();
  const auto cost_b = tiny_analytic_model();
  const ServeReport a = serve(*cost_a, config);
  const ServeReport b = serve(*cost_b, config);
  EXPECT_EQ(a.completed, config.arrival.requests);
  expect_reports_identical(a, b);
}

TEST(Serve, EveryRequestIsChargedItsThreeDelays) {
  const ServeConfig config = small_serve_config();
  const auto cost = tiny_analytic_model();
  const ServeReport report = serve(*cost, config);
  EXPECT_EQ(report.latency_ms.count(), report.completed);
  EXPECT_EQ(report.batching_ms.count(), report.completed);
  EXPECT_EQ(report.queueing_ms.count(), report.completed);
  EXPECT_EQ(report.execution_ms.count(), report.completed);
  // Latency decomposes into batching + queueing + execution.
  EXPECT_NEAR(report.latency_ms.sum(),
              report.batching_ms.sum() + report.queueing_ms.sum() +
                  report.execution_ms.sum(),
              1e-6 * report.latency_ms.sum());
  std::uint64_t tenant_total = 0;
  for (const TenantReport& tenant : report.tenants) {
    tenant_total += tenant.completed;
  }
  EXPECT_EQ(tenant_total, report.completed);
  EXPECT_GT(report.fairness, 0.99);  // symmetric tenants
  EXPECT_LE(report.goodput_rps, report.throughput_rps);
}

TEST(Serve, LatencyAndThroughputGrowWithOfferedLoad) {
  // max_batch=1 keeps the latency-vs-rate curve monotone (batching makes
  // it non-monotone: more load can fill batches faster). This is the
  // throughput/latency Pareto sweep of the serving literature.
  double previous_p95 = 0.0;
  double previous_throughput = 0.0;
  for (const double rate : {1000.0, 4000.0, 8000.0}) {
    ServeConfig config = small_serve_config();
    config.policy.max_batch = 1;
    config.arrival.rate_rps = rate;
    config.arrival.requests = 3000;
    const auto cost = tiny_analytic_model();
    const ServeReport report = serve(*cost, config);
    EXPECT_GE(report.latency_ms.quantile(0.95), previous_p95);
    EXPECT_GT(report.throughput_rps, previous_throughput);
    previous_p95 = report.latency_ms.quantile(0.95);
    previous_throughput = report.throughput_rps;
  }
  EXPECT_GT(previous_p95, 0.0);
}

TEST(Serve, GoodputCountsOnlyRequestsWithinTheSlo) {
  ServeConfig config = small_serve_config();
  config.slo_ms = 1e-6;  // below any execution time: nothing qualifies
  const auto strict_cost = tiny_analytic_model();
  const ServeReport strict = serve(*strict_cost, config);
  EXPECT_EQ(strict.goodput_rps, 0.0);
  EXPECT_EQ(strict.slo_attainment, 0.0);

  config.slo_ms = 1e6;  // far above: everything qualifies
  const auto lax_cost = tiny_analytic_model();
  const ServeReport lax = serve(*lax_cost, config);
  EXPECT_DOUBLE_EQ(lax.slo_attainment, 1.0);
  EXPECT_DOUBLE_EQ(lax.goodput_rps, lax.throughput_rps);
}

TEST(Serve, DetailedCostOracleIsDeterministicAndReportsOsStats) {
  core::SystemConfig config = core::SystemConfig::maco_default();
  CostModelOptions cost_options;
  cost_options.nodes = 2;
  ServeConfig serve_config = small_serve_config();
  serve_config.arrival.requests = 60;
  serve_config.policy.max_batch = 4;

  const auto cost_a = make_detailed_cost_model(
      config, serve_model("tiny", 0), cost_options);
  const auto cost_b = make_detailed_cost_model(
      config, serve_model("tiny", 0), cost_options);
  const ServeReport a = serve(*cost_a, serve_config);
  const ServeReport b = serve(*cost_b, serve_config);
  expect_reports_identical(a, b);
  ASSERT_TRUE(a.has_scheduler_stats);
  EXPECT_GT(a.scheduler.tasks_completed, 0u);
  EXPECT_EQ(a.scheduler.tasks_failed, 0u);
  EXPECT_EQ(a.scheduler.tasks_completed, b.scheduler.tasks_completed);
  EXPECT_EQ(a.scheduler.context_switches, b.scheduler.context_switches);
}

TEST(Serve, RejectsInconsistentConfiguration) {
  CostModelOptions options;
  options.nodes = 2;
  options.instances = 4;  // more instances than nodes
  EXPECT_THROW(make_analytic_cost_model(core::SystemConfig::maco_default(),
                                        serve_model("tiny", 0), options),
               std::invalid_argument);
  EXPECT_THROW(serve_model("mystery", 0), std::invalid_argument);

  ServeConfig config = small_serve_config();
  config.instances = 0;
  const auto cost = tiny_analytic_model();
  EXPECT_THROW(serve(*cost, config), std::invalid_argument);
}

// ---- metric direction inference ----

TEST(MetricDirections, PercentileAndLatencyNamesAreLowerIsBetter) {
  EXPECT_TRUE(exp::lower_is_better_metric_name("latency_p95_ms"));
  EXPECT_TRUE(exp::lower_is_better_metric_name("p99"));
  EXPECT_TRUE(exp::lower_is_better_metric_name("worst_tenant_p95_ms"));
  EXPECT_TRUE(exp::lower_is_better_metric_name("latency_mean_ms"));
  EXPECT_TRUE(exp::lower_is_better_metric_name("p999_ms"));
  EXPECT_FALSE(exp::lower_is_better_metric_name("throughput_rps"));
  EXPECT_FALSE(exp::lower_is_better_metric_name("pages_per_tile"));
  EXPECT_FALSE(exp::lower_is_better_metric_name("speedup"));
  EXPECT_FALSE(exp::lower_is_better_metric_name("top5_accuracy"));
  EXPECT_FALSE(exp::lower_is_better_metric_name("gflops"));
}

TEST(MetricDirections, AddInfersUnlessDirectionIsExplicit) {
  exp::ScenarioResult result;
  result.add("latency_p95_ms", 1.0, "ms");       // inferred: lower
  result.add("throughput_rps", 2.0, "req/s");    // inferred: higher
  result.add("latency_score", 3.0, "", true);    // explicit wins
  EXPECT_FALSE(result.find("latency_p95_ms")->higher_is_better);
  EXPECT_TRUE(result.find("throughput_rps")->higher_is_better);
  EXPECT_TRUE(result.find("latency_score")->higher_is_better);
}

// ---- scenario integration: thread-count invariance ----

TEST(ServeSweep, MetricsAreIdenticalAcrossThreadCounts) {
  const driver::ScenarioRegistry registry =
      driver::ScenarioRegistry::builtin();
  driver::SweepRequest request;
  request.scenario = "serve";
  request.base_params = {{"requests", "400"}, {"seed", "11"}};
  request.axes = {{"arrival_rate_rps", {"500", "2000", "6000"}}};

  request.threads = 1;
  const driver::SweepResults serial = driver::run_sweep(registry, request);
  request.threads = 4;
  const driver::SweepResults parallel = driver::run_sweep(registry, request);

  ASSERT_EQ(serial.rows.size(), 3u);
  ASSERT_EQ(parallel.rows.size(), 3u);
  EXPECT_EQ(serial.failures(), 0u);
  EXPECT_EQ(parallel.failures(), 0u);
  for (std::size_t row = 0; row < serial.rows.size(); ++row) {
    const auto& a = serial.rows[row].result.metrics;
    const auto& b = parallel.rows[row].result.metrics;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t m = 0; m < a.size(); ++m) {
      EXPECT_EQ(a[m].name, b[m].name);
      // Bit-identical, not approximately equal: the serve loop runs in
      // virtual time and all randomness is seeded.
      EXPECT_EQ(a[m].value, b[m].value) << a[m].name;
    }
  }
}

}  // namespace
}  // namespace maco::serve

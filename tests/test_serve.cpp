// Serving subsystem: load generation, dynamic batching, the serve loop's
// virtual-time event simulation and its latency/goodput/fairness metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "driver/scenario_registry.hpp"
#include "driver/sweep_runner.hpp"
#include "exp/results.hpp"
#include "serve/server.hpp"
#include "util/latency_histogram.hpp"
#include "util/rng.hpp"

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

// The logarithm formula that defines the histogram's bins: 32 per decade
// over [1e-6, 1e7), bin 0 below, bin 417 at and above. The volatile read
// keeps GCC from folding log10 of a constant sample with MPFR, which can
// differ from the C library in the last ulp.
std::size_t log10_bin(double sample) {
  const volatile double opaque = sample;
  const double x = opaque;
  if (!(x >= 1e-6)) return 0;
  if (x >= 1e7) return 417;
  const double offset = (std::log10(x) - (-6.0)) * 32.0;
  std::size_t index = static_cast<std::size_t>(offset);
  if (index >= 416) index = 415;
  return index + 1;
}

TEST(LatencyHistogram, TableBinsEqualTheLog10Formula) {
  util::LatencyHistogram h;
  ASSERT_EQ(h.buckets().size(), 418u);
  // Exactly one bin grows per sample, so the formula's bin growing by one
  // places the sample there.
  const auto expect_formula_bin = [&h](double sample) {
    const std::size_t want = log10_bin(sample);
    const std::uint64_t before = h.buckets()[want];
    h.record(sample);
    return h.buckets()[want] == before + 1;
  };
  // Every double within 64 ulps of each grid edge 10^(-6 + i/32), a window
  // wide enough to hold the formula's own edge.
  for (int i = 0; i <= 416; ++i) {
    const double grid = std::pow(10.0, -6.0 + i / 32.0);
    double x = grid;
    for (int step = 0; step < 64; ++step) x = std::nextafter(x, 0.0);
    ASSERT_EQ(log10_bin(x), static_cast<std::size_t>(i)) << grid;
    for (int step = 0; step <= 128; ++step) {
      ASSERT_TRUE(expect_formula_bin(x)) << x << " near edge " << i;
      x = std::nextafter(x, std::numeric_limits<double>::infinity());
    }
    ASSERT_EQ(log10_bin(x), static_cast<std::size_t>(i + 1)) << grid;
  }
  // Log-uniform samples over 16 decades, most of them inside the range.
  util::Rng rng(2024);
  for (int i = 0; i < 1000000; ++i) {
    const double x = std::pow(10.0, rng.next_double(-8.0, 8.0));
    ASSERT_TRUE(expect_formula_bin(x)) << x;
  }
  // The underflow and overflow boundaries and the extremes.
  const double lo = 1e-6;
  const double hi = 1e7;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x :
       {0.0, -1.0, std::numeric_limits<double>::denorm_min(), lo,
        std::nextafter(lo, 0.0), std::nextafter(lo, inf), hi,
        std::nextafter(hi, 0.0), std::nextafter(hi, inf),
        std::numeric_limits<double>::max()}) {
    EXPECT_TRUE(expect_formula_bin(x)) << x;
  }
  EXPECT_EQ(log10_bin(std::nextafter(lo, 0.0)), 0u);
  EXPECT_EQ(log10_bin(lo), 1u);
  EXPECT_EQ(log10_bin(std::nextafter(hi, 0.0)), 416u);
  EXPECT_EQ(log10_bin(hi), 417u);
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
  const std::vector<Arrival> first =
      LoadGenerator(poisson_config(7)).schedule();
  const std::vector<Arrival> second =
      LoadGenerator(poisson_config(7)).schedule();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].tenant, second[i].tenant);
    EXPECT_EQ(first[i].arrival_ps, second[i].arrival_ps);
  }
}

TEST(LoadGenerator, DifferentSeedsGiveDifferentTimelines) {
  const std::vector<Arrival> a = LoadGenerator(poisson_config(7)).schedule();
  const std::vector<Arrival> b = LoadGenerator(poisson_config(8)).schedule();
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
  const std::vector<Arrival> one =
      LoadGenerator(poisson_config(7, /*tenants=*/1)).schedule();
  const std::vector<Arrival> four =
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
  const std::vector<Arrival> schedule = LoadGenerator(config).schedule();
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
  const std::vector<Arrival> schedule = LoadGenerator(config).schedule();
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

// Message of the std::invalid_argument `run` throws, or "" if none.
template <typename Fn>
std::string invalid_argument_of(Fn&& run) {
  try {
    run();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(LoadGenerator, RejectsArrivalsPastTheClock) {
  // 10^-6 req/s puts the ~10th arrival past 2^63 ps (~106.7 days); the
  // clock used to saturate there and batch the rest together.
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform}) {
    ArrivalConfig config = poisson_config(1);
    config.kind = kind;
    config.rate_rps = 1e-6;
    config.requests = 100;
    const std::string error =
        invalid_argument_of([&] { (void)LoadGenerator(config).schedule(); });
    EXPECT_NE(error.find("arrival_rate_rps and requests"), std::string::npos)
        << error;
  }
  ArrivalConfig config = poisson_config(1);
  config.kind = ArrivalKind::kUniform;
  config.rate_rps = 1e-6;
  config.requests = 9;  // the last at 9e6 s, just below 2^63 ps
  EXPECT_EQ(LoadGenerator(config).schedule().back().arrival_ps,
            9'000'000 * sim::kPsPerSecond);
}

TEST(LoadGenerator, RejectsTraceTimesPastTheClock) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kTrace;
  config.trace = parse_trace("1e10\n2e10 1\n");
  const std::string error =
      invalid_argument_of([&] { (void)LoadGenerator(config).schedule(); });
  EXPECT_NE(error.find("trace time"), std::string::npos) << error;
  for (const double bad : {-1.0, std::nan("")}) {
    config.trace = {TraceEntry{bad, -1}};
    EXPECT_THROW((void)LoadGenerator(config).schedule(),
                 std::invalid_argument);
  }
  config.trace = parse_trace("9e6\n");  // just below 2^63 ps
  EXPECT_EQ(LoadGenerator(config).schedule().at(0).arrival_ps,
            9'000'000 * sim::kPsPerSecond);
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
  ASSERT_TRUE(batcher.next_deadline().has_value());
  EXPECT_EQ(*batcher.next_deadline(), 105u);

  const std::vector<Batch> at_200 = batcher.collect(200);
  ASSERT_EQ(at_200.size(), 1u);
  EXPECT_EQ(at_200[0].tenant, 1u);
  EXPECT_EQ(at_200[0].size(), 1u);
  EXPECT_EQ(at_200[0].close_ps, 105u);  // arrival + timeout, not `now`
  EXPECT_FALSE(batcher.next_deadline().has_value());
  EXPECT_TRUE(batcher.collect(300).empty());
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

  // Typed errors, not the batcher's abort.
  config = small_serve_config();
  config.arrival.tenants = 0;
  EXPECT_THROW(serve(*cost, config), std::invalid_argument);
  config = small_serve_config();
  config.policy.max_batch = 0;
  EXPECT_THROW(serve(*cost, config), std::invalid_argument);
}

TEST(Serve, RejectsThinkTimesPastTheClock) {
  ServeConfig config = small_serve_config();
  config.closed_loop = true;
  config.concurrency = 1;
  config.arrival.requests = 50;
  const auto cost = tiny_analytic_model();
  // One think time beyond 2^63 ps (a mean of 10^9 s) ...
  config.think_s = 1e9;
  std::string error = invalid_argument_of([&] { serve(*cost, config); });
  EXPECT_NE(error.find("think_ms"), std::string::npos) << error;
  // ... and completion + think crossing it after many short thinks: 1000
  // thinks of ~10^5 s each add up to ~10^20 ps, past even 2^64.
  config.think_s = 1e5;
  config.arrival.requests = 1000;
  error = invalid_argument_of([&] { serve(*cost, config); });
  EXPECT_NE(error.find("think_ms"), std::string::npos) << error;
  config.arrival.requests = 40;  // ~4e6 s in all: fits
  EXPECT_EQ(serve(*cost, config).completed, 40u);
}

TEST(Serve, RejectsRequestCountsPast32BitIds) {
  ServeConfig config = small_serve_config();
  config.arrival.requests = std::uint64_t{1} << 32;
  EXPECT_THROW(ArrivalStream stream(config.arrival), std::invalid_argument);
  EXPECT_THROW((void)LoadGenerator(config.arrival).schedule(),
               std::invalid_argument);
  const auto cost = tiny_analytic_model();
  EXPECT_THROW(serve(*cost, config), std::invalid_argument);
  config.closed_loop = true;
  EXPECT_THROW(serve(*cost, config), std::invalid_argument);
  // A trace ignores `requests`.
  config.arrival.kind = ArrivalKind::kTrace;
  config.arrival.trace = parse_trace("0.001\n");
  EXPECT_EQ(LoadGenerator(config.arrival).schedule().size(), 1u);
}

// ---- reference model: the materialized generator and loop ----
//
// The load generator and serve loop as they were before arrivals were
// streamed: the whole schedule built up front as Request records, a
// batcher whose batches carry bare ids, and a loop that looks every member
// up in the per-request table. The streaming loop must produce an equal
// report, field by field.
namespace reference {

constexpr sim::TimePs kNever = std::numeric_limits<sim::TimePs>::max();

std::vector<Request> schedule(const ArrivalConfig& config) {
  util::Rng arrival_rng(0x5eefull ^ (config.seed * 0x9e3779b97f4a7c15ull));
  util::Rng tenant_rng(0x7e4a ^ (config.seed * 0xbf58476d1ce4e5b9ull));
  std::vector<Request> requests;
  const auto push = [&](double arrival_s, int pinned_tenant) {
    Request request;
    request.id = requests.size();
    request.tenant =
        pinned_tenant >= 0
            ? static_cast<unsigned>(pinned_tenant) % config.tenants
            : static_cast<unsigned>(tenant_rng.next_below(config.tenants));
    request.arrival_ps = static_cast<sim::TimePs>(
        std::llround(arrival_s * static_cast<double>(sim::kPsPerSecond)));
    requests.push_back(request);
  };
  switch (config.kind) {
    case ArrivalKind::kPoisson: {
      double t = 0.0;
      for (std::uint64_t i = 0; i < config.requests; ++i) {
        t += -std::log(1.0 - arrival_rng.next_double()) / config.rate_rps;
        push(t, -1);
      }
      break;
    }
    case ArrivalKind::kUniform:
      for (std::uint64_t i = 0; i < config.requests; ++i) {
        push(static_cast<double>(i + 1) / config.rate_rps, -1);
      }
      break;
    case ArrivalKind::kTrace:
      for (const TraceEntry& entry : config.trace) {
        push(entry.arrival_s, entry.tenant);
      }
      std::stable_sort(requests.begin(), requests.end(),
                       [](const Request& a, const Request& b) {
                         return a.arrival_ps < b.arrival_ps;
                       });
      for (std::size_t i = 0; i < requests.size(); ++i) requests[i].id = i;
      break;
  }
  return requests;
}

struct IdBatch {
  unsigned tenant = 0;
  std::vector<std::uint64_t> requests;
  sim::TimePs close_ps = 0;
};

class Batcher {
 public:
  Batcher(unsigned tenants, const BatchPolicy& policy)
      : policy_(policy), queues_(tenants) {}

  void enqueue(std::uint64_t request_id, unsigned tenant, sim::TimePs now) {
    queues_[tenant].push_back(Waiting{request_id, now});
    if (queues_[tenant].size() >= policy_.max_batch ||
        policy_.timeout_ps == 0) {
      seal(tenant, now);
    }
  }

  std::optional<sim::TimePs> next_deadline() const {
    std::optional<sim::TimePs> deadline;
    for (const std::deque<Waiting>& queue : queues_) {
      if (queue.empty()) continue;
      const sim::TimePs due = queue.front().arrival_ps + policy_.timeout_ps;
      if (!deadline || due < *deadline) deadline = due;
    }
    return deadline;
  }

  std::vector<IdBatch> collect(sim::TimePs now) {
    for (unsigned tenant = 0; tenant < queues_.size(); ++tenant) {
      while (!queues_[tenant].empty() &&
             queues_[tenant].front().arrival_ps + policy_.timeout_ps <= now) {
        seal(tenant, queues_[tenant].front().arrival_ps + policy_.timeout_ps);
      }
    }
    return std::exchange(sealed_, {});
  }

 private:
  struct Waiting {
    std::uint64_t request_id;
    sim::TimePs arrival_ps;
  };

  void seal(unsigned tenant, sim::TimePs close_ps) {
    std::deque<Waiting>& queue = queues_[tenant];
    IdBatch batch;
    batch.tenant = tenant;
    batch.close_ps = close_ps;
    const unsigned take = std::min<unsigned>(
        policy_.max_batch, static_cast<unsigned>(queue.size()));
    for (unsigned i = 0; i < take; ++i) {
      batch.requests.push_back(queue.front().request_id);
      queue.pop_front();
    }
    sealed_.push_back(std::move(batch));
  }

  BatchPolicy policy_;
  std::vector<std::deque<Waiting>> queues_;
  std::vector<IdBatch> sealed_;
};

class ServeLoop {
 public:
  ServeLoop(BatchCostModel& cost, const ServeConfig& config)
      : cost_(cost),
        config_(config),
        batcher_(config.arrival.tenants, config.policy),
        think_rng_(0x7417ull ^ (config.arrival.seed * 0x94d049bb133111ebull)) {
    for (unsigned i = 0; i < config.instances; ++i) {
      instances_.push({0, i});
    }
    if (config.closed_loop) {
      const unsigned sessions = static_cast<unsigned>(std::min<std::uint64_t>(
          config.concurrency, config.arrival.requests));
      for (unsigned session = 0; session < sessions; ++session) {
        spawn(session % config.arrival.tenants, think_delay_ps());
      }
    } else {
      records_ = schedule(config.arrival);
    }
  }

  ServeReport run() {
    while (step()) {
    }
    return finish();
  }

 private:
  struct Pending {
    sim::TimePs at;
    std::uint64_t id;
    bool operator>(const Pending& other) const noexcept {
      return at != other.at ? at > other.at : id > other.id;
    }
  };

  struct Completion {
    sim::TimePs at;
    std::uint64_t seq;
    IdBatch batch;
    sim::TimePs exec_start;
    unsigned instance;
    bool operator>(const Completion& other) const noexcept {
      return at != other.at ? at > other.at : seq > other.seq;
    }
  };

  using InstanceSlot = std::pair<sim::TimePs, unsigned>;

  sim::TimePs think_delay_ps() {
    if (config_.think_s <= 0.0) return 0;
    const double wait =
        -std::log(1.0 - think_rng_.next_double()) * config_.think_s;
    return static_cast<sim::TimePs>(
        std::llround(wait * static_cast<double>(sim::kPsPerSecond)));
  }

  void spawn(unsigned tenant, sim::TimePs at) {
    if (issued_ >= config_.arrival.requests) return;
    ++issued_;
    Request request;
    request.id = records_.size();
    request.tenant = tenant;
    request.arrival_ps = at;
    pending_.push(Pending{at, request.id});
    records_.push_back(request);
  }

  sim::TimePs next_arrival() const {
    if (config_.closed_loop) {
      return pending_.empty() ? kNever : pending_.top().at;
    }
    return cursor_ < records_.size() ? records_[cursor_].arrival_ps : kNever;
  }

  bool step() {
    const sim::TimePs t_completion =
        completions_.empty() ? kNever : completions_.top().at;
    const sim::TimePs t_arrival = next_arrival();
    const sim::TimePs t_deadline =
        batcher_.next_deadline().value_or(kNever);
    const sim::TimePs now = std::min({t_completion, t_arrival, t_deadline});
    if (now == kNever) return false;
    if (t_completion == now) {
      complete(completions_.top());
      completions_.pop();
    } else if (t_arrival == now) {
      std::uint64_t id;
      if (config_.closed_loop) {
        id = pending_.top().id;
        pending_.pop();
      } else {
        id = records_[cursor_++].id;
      }
      batcher_.enqueue(id, records_[id].tenant, now);
    }
    for (IdBatch& batch : batcher_.collect(now)) dispatch(std::move(batch));
    return true;
  }

  void dispatch(IdBatch batch) {
    const InstanceSlot slot = instances_.top();
    instances_.pop();
    const sim::TimePs start = std::max(batch.close_ps, slot.first);
    const auto size = static_cast<unsigned>(batch.requests.size());
    const sim::TimePs done = start + cost_.batch_makespan_ps(size);
    instances_.push({done, slot.second});
    completions_.push(Completion{done, dispatch_seq_++, std::move(batch),
                                 start, slot.second});
  }

  void complete(const Completion& completion) {
    ++report_.batches;
    if (config_.record_trace) {
      report_.batch_log.push_back(ServeReport::BatchTrace{
          completion.instance, completion.seq,
          static_cast<unsigned>(completion.batch.requests.size()),
          completion.batch.close_ps, completion.exec_start, completion.at});
    }
    for (const std::uint64_t id : completion.batch.requests) {
      Request& request = records_[id];
      request.batch_close_ps = completion.batch.close_ps;
      request.exec_start_ps = completion.exec_start;
      request.completion_ps = completion.at;
      record(request);
      if (config_.closed_loop) {
        spawn(request.tenant, completion.at + think_delay_ps());
      }
    }
  }

  void record(const Request& request) {
    const auto ms = [](sim::TimePs ps) {
      return static_cast<double>(ps) / 1e9;
    };
    const double latency = ms(request.completion_ps - request.arrival_ps);
    report_.latency_ms.record(latency);
    report_.batching_ms.record(
        ms(request.batch_close_ps - request.arrival_ps));
    report_.queueing_ms.record(
        ms(request.exec_start_ps - request.batch_close_ps));
    report_.execution_ms.record(
        ms(request.completion_ps - request.exec_start_ps));
    ++report_.completed;
    if (report_.tenants.size() < config_.arrival.tenants) {
      report_.tenants.resize(config_.arrival.tenants);
    }
    TenantReport& tenant = report_.tenants[request.tenant];
    ++tenant.completed;
    tenant.latency_ms.record(latency);
    if (latency <= config_.slo_ms) ++tenant.slo_met;
    last_arrival_ps_ = std::max(last_arrival_ps_, request.arrival_ps);
    last_completion_ps_ = std::max(last_completion_ps_, request.completion_ps);
  }

  ServeReport finish() {
    report_.tenants.resize(config_.arrival.tenants);
    report_.duration_s = sim::to_seconds(last_completion_ps_);
    const double arrival_span_s = sim::to_seconds(last_arrival_ps_);
    const double completed = static_cast<double>(report_.completed);
    if (arrival_span_s > 0.0) report_.offered_rps = completed / arrival_span_s;
    std::uint64_t slo_met = 0;
    double tenant_sum = 0.0;
    double tenant_sq = 0.0;
    for (const TenantReport& tenant : report_.tenants) {
      slo_met += tenant.slo_met;
      const double share = static_cast<double>(tenant.completed);
      tenant_sum += share;
      tenant_sq += share * share;
    }
    if (report_.duration_s > 0.0) {
      report_.throughput_rps = completed / report_.duration_s;
      report_.goodput_rps = static_cast<double>(slo_met) / report_.duration_s;
    }
    if (report_.completed > 0) {
      report_.slo_attainment = static_cast<double>(slo_met) / completed;
      report_.fairness =
          tenant_sum * tenant_sum /
          (static_cast<double>(report_.tenants.size()) * tenant_sq);
    }
    if (report_.batches > 0) {
      report_.mean_batch = completed / static_cast<double>(report_.batches);
    }
    if (const os::SchedulerStats* stats = cost_.scheduler_stats()) {
      report_.scheduler = *stats;
      report_.has_scheduler_stats = true;
    }
    if (config_.record_trace) report_.request_log = std::move(records_);
    return std::move(report_);
  }

  BatchCostModel& cost_;
  const ServeConfig& config_;
  Batcher batcher_;
  util::Rng think_rng_;
  std::vector<Request> records_;
  std::size_t cursor_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t dispatch_seq_ = 0;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>>
      pending_;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      completions_;
  std::priority_queue<InstanceSlot, std::vector<InstanceSlot>,
                      std::greater<>>
      instances_;
  sim::TimePs last_arrival_ps_ = 0;
  sim::TimePs last_completion_ps_ = 0;
  ServeReport report_;
};

}  // namespace reference

void expect_histograms_equal(const util::LatencyHistogram& a,
                             const util::LatencyHistogram& b,
                             const char* what) {
  EXPECT_EQ(a.buckets(), b.buckets()) << what;
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void expect_reports_equal(const ServeReport& a, const ServeReport& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.offered_rps, b.offered_rps);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
  EXPECT_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_EQ(a.mean_batch, b.mean_batch);
  EXPECT_EQ(a.fairness, b.fairness);
  expect_histograms_equal(a.latency_ms, b.latency_ms, "latency");
  expect_histograms_equal(a.batching_ms, b.batching_ms, "batching");
  expect_histograms_equal(a.queueing_ms, b.queueing_ms, "queueing");
  expect_histograms_equal(a.execution_ms, b.execution_ms, "execution");
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].completed, b.tenants[t].completed) << t;
    EXPECT_EQ(a.tenants[t].slo_met, b.tenants[t].slo_met) << t;
    expect_histograms_equal(a.tenants[t].latency_ms, b.tenants[t].latency_ms,
                            "tenant latency");
  }
  EXPECT_EQ(a.has_scheduler_stats, b.has_scheduler_stats);
  ASSERT_EQ(a.request_log.size(), b.request_log.size());
  for (std::size_t i = 0; i < a.request_log.size(); ++i) {
    const Request& x = a.request_log[i];
    const Request& y = b.request_log[i];
    EXPECT_EQ(x.id, y.id) << i;
    EXPECT_EQ(x.tenant, y.tenant) << i;
    EXPECT_EQ(x.arrival_ps, y.arrival_ps) << i;
    EXPECT_EQ(x.batch_close_ps, y.batch_close_ps) << i;
    EXPECT_EQ(x.exec_start_ps, y.exec_start_ps) << i;
    EXPECT_EQ(x.completion_ps, y.completion_ps) << i;
  }
  ASSERT_EQ(a.batch_log.size(), b.batch_log.size());
  for (std::size_t i = 0; i < a.batch_log.size(); ++i) {
    const ServeReport::BatchTrace& x = a.batch_log[i];
    const ServeReport::BatchTrace& y = b.batch_log[i];
    EXPECT_EQ(x.instance, y.instance) << i;
    EXPECT_EQ(x.seq, y.seq) << i;
    EXPECT_EQ(x.size, y.size) << i;
    EXPECT_EQ(x.close_ps, y.close_ps) << i;
    EXPECT_EQ(x.exec_start_ps, y.exec_start_ps) << i;
    EXPECT_EQ(x.completion_ps, y.completion_ps) << i;
  }
}

// A trace with ties (a 100 µs grid), entries out of time order and every
// third entry pinned to a tenant, some beyond the tenant count.
std::vector<TraceEntry> shuffled_trace() {
  util::Rng rng(99);
  std::vector<TraceEntry> trace;
  for (int i = 0; i < 300; ++i) {
    TraceEntry entry;
    entry.arrival_s = 1e-4 * static_cast<double>(rng.next_below(400));
    entry.tenant = i % 3 == 0 ? static_cast<int>(rng.next_below(5)) : -1;
    trace.push_back(entry);
  }
  return trace;
}

std::vector<ArrivalConfig> arrival_grid() {
  std::vector<ArrivalConfig> grid;
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kUniform, ArrivalKind::kTrace}) {
    ArrivalConfig config;
    config.kind = kind;
    config.rate_rps = 6000.0;
    config.requests = 300;
    config.seed = 5;
    if (kind == ArrivalKind::kTrace) config.trace = shuffled_trace();
    grid.push_back(config);
  }
  return grid;
}

TEST(LoadGenerator, ScheduleIsTheDrainedStreamAndMatchesTheReference) {
  for (ArrivalConfig config : arrival_grid()) {
    for (const unsigned tenants : {1u, 3u}) {
      config.tenants = tenants;
      const std::vector<Arrival> schedule = LoadGenerator(config).schedule();
      const std::vector<Request> expected = reference::schedule(config);
      ArrivalStream stream(config);
      ASSERT_EQ(schedule.size(), expected.size());
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        Arrival drained;
        ASSERT_TRUE(stream.next(drained));
        EXPECT_EQ(drained.arrival_ps, schedule[i].arrival_ps) << i;
        EXPECT_EQ(drained.id, schedule[i].id) << i;
        EXPECT_EQ(drained.tenant, schedule[i].tenant) << i;
        EXPECT_EQ(schedule[i].arrival_ps, expected[i].arrival_ps) << i;
        EXPECT_EQ(schedule[i].id, expected[i].id) << i;
        EXPECT_EQ(schedule[i].tenant, expected[i].tenant) << i;
      }
      Arrival past_the_end;
      EXPECT_FALSE(stream.next(past_the_end));
    }
  }
}

// Poisson, uniform, the shuffled trace and the closed loop at think 0 and
// 1 ms, each over tenants {1, 3, 64} x max_batch {1, 4} x timeout {0,
// 200 us} x instances {1, 2} x record_trace {off, on}. The reference
// batcher scans every tenant in order, and 64 tenants on the trace's 100 us
// grid close many windows at one instant, so this also checks that equal
// deadlines seal in tenant order.
TEST(Serve, StreamingLoopMatchesTheMaterializedReference) {
  const std::unique_ptr<BatchCostModel> costs[] = {tiny_analytic_model(1),
                                                   tiny_analytic_model(2)};
  std::vector<ServeConfig> loops;
  for (const ArrivalConfig& arrival : arrival_grid()) {
    ServeConfig config;
    config.arrival = arrival;
    loops.push_back(config);
  }
  for (const double think_s : {0.0, 0.001}) {
    ServeConfig config;
    config.arrival = arrival_grid().front();
    config.closed_loop = true;
    config.think_s = think_s;
    loops.push_back(config);
  }
  int runs = 0;
  for (ServeConfig config : loops) {
    const std::uint64_t requests =
        config.closed_loop || config.arrival.kind != ArrivalKind::kTrace
            ? config.arrival.requests
            : config.arrival.trace.size();
    // Bit b of `point` selects the second value of the b-th knob.
    for (const unsigned tenants : {1u, 3u, 64u}) {
      for (unsigned point = 0; point < 16; ++point) {
        config.arrival.tenants = tenants;
        config.policy.max_batch = (point & 1) != 0 ? 4 : 1;
        config.policy.timeout_ps = (point & 2) != 0 ? 200 * sim::kPsPerUs : 0;
        config.instances = (point & 4) != 0 ? 2 : 1;
        config.record_trace = (point & 8) != 0;
        SCOPED_TRACE(::testing::Message()
                     << arrival_kind_name(config.arrival.kind)
                     << " closed=" << config.closed_loop
                     << " think=" << config.think_s << " tenants=" << tenants
                     << " point=" << point);
        BatchCostModel& cost = *costs[config.instances - 1];
        const ServeReport expected = reference::ServeLoop(cost, config).run();
        const ServeReport actual = serve(cost, config);
        EXPECT_EQ(actual.completed, requests);
        expect_reports_equal(expected, actual);
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 240);
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

// The multi-tenant serve loop.
//
// A discrete-event simulation in virtual time that wires the pieces
// together: requests arrive (open-loop from an ArrivalStream, or
// closed-loop from a fixed pool of sessions with exponential think time),
// the DynamicBatcher admits them into per-tenant queues and seals batches,
// and sealed batches run on one of `instances` concurrent model instances
// whose execution cost comes from a BatchCostModel. Every request is
// charged three delays in simulated picoseconds — batching (arrival to
// seal), queueing (seal to execution start) and execution (batch
// makespan) — and the report aggregates them into latency percentiles,
// throughput, SLO goodput and per-tenant fairness.
//
// The loop reads arrivals one at a time and a batch carries its members,
// so host memory grows with the requests in flight (waiting or executing),
// not with the stream length. Each request costs O(1): its admission, five
// histogram records (a table lookup each) and its charge from its batch.
// Each batch costs O(log n) over three heaps: the batcher's deadlines (one
// per waiting tenant), the batches in flight and the instances. The
// machine is only evaluated once per distinct batch size (see
// serve/cost_model.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "os/scheduler.hpp"
#include "serve/batcher.hpp"
#include "serve/cost_model.hpp"
#include "serve/workload.hpp"
#include "util/latency_histogram.hpp"

namespace maco::serve {

// One served request's lifecycle, as the trace log records it (see
// ServeConfig::record_trace), with every timestamp in engine virtual time.
struct Request {
  std::uint64_t id = 0;
  unsigned tenant = 0;
  sim::TimePs arrival_ps = 0;      // entered the tenant's admission queue
  sim::TimePs batch_close_ps = 0;  // the batch it joined was sealed
  sim::TimePs exec_start_ps = 0;   // the batch began executing
  sim::TimePs completion_ps = 0;   // the batch's makespan elapsed

  sim::TimePs latency_ps() const noexcept {
    return completion_ps - arrival_ps;
  }
  sim::TimePs batching_delay_ps() const noexcept {
    return batch_close_ps - arrival_ps;
  }
  sim::TimePs queueing_delay_ps() const noexcept {
    return exec_start_ps - batch_close_ps;
  }
  sim::TimePs execution_ps() const noexcept {
    return completion_ps - exec_start_ps;
  }
};

struct ServeConfig {
  ArrivalConfig arrival;  // tenants/requests/seed also govern closed loop
  BatchPolicy policy;
  unsigned instances = 1;  // concurrent model instances (executors)
  double slo_ms = 10.0;    // latency objective for goodput accounting

  // Closed loop: `concurrency` sessions each keep one request in flight
  // and re-issue after an exponential think time with mean `think_s`.
  // arrival.kind / arrival.rate_rps are ignored; arrival.tenants,
  // arrival.requests (total issued) and arrival.seed still apply.
  bool closed_loop = false;
  unsigned concurrency = 8;
  double think_s = 0.0;

  // Keep the per-request and per-batch timestamp logs in the report so a
  // lifecycle trace can be rendered (--trace-out). Off by default: the
  // logs are the only serve state that grows with the request count.
  bool record_trace = false;
};

struct TenantReport {
  std::uint64_t completed = 0;
  std::uint64_t slo_met = 0;
  util::LatencyHistogram latency_ms;
};

struct ServeReport {
  std::uint64_t completed = 0;       // requests served to completion
  std::uint64_t batches = 0;         // batches executed
  double duration_s = 0.0;           // simulated time to last completion
  double offered_rps = 0.0;          // admitted / span of arrivals
  double throughput_rps = 0.0;       // completed / duration_s
  double goodput_rps = 0.0;          // completions within slo / duration_s
  double slo_attainment = 0.0;       // fraction of completions within slo
  double mean_batch = 0.0;           // completed / batches
  double fairness = 0.0;             // Jain index over tenant completions

  // End-to-end latency plus its three components, all in milliseconds.
  util::LatencyHistogram latency_ms;
  util::LatencyHistogram batching_ms;   // arrival -> batch seal
  util::LatencyHistogram queueing_ms;   // seal -> execution start
  util::LatencyHistogram execution_ms;  // execution start -> completion

  std::vector<TenantReport> tenants;

  // Accumulated os::Scheduler counters when the cost model measures
  // through the detailed machine; all-zero (and flagged absent) otherwise.
  os::SchedulerStats scheduler;
  bool has_scheduler_stats = false;

  // One executed batch (config.record_trace only): which instance ran it
  // and its seal/start/completion times.
  struct BatchTrace {
    unsigned instance = 0;
    std::uint64_t seq = 0;       // dispatch order
    unsigned size = 0;           // requests in the batch
    sim::TimePs close_ps = 0;    // batch sealed
    sim::TimePs exec_start_ps = 0;
    sim::TimePs completion_ps = 0;
  };

  // Trace logs (empty unless config.record_trace): every served request
  // with its lifecycle timestamps filled in, in id order, and every
  // executed batch in completion order.
  std::vector<Request> request_log;
  std::vector<BatchTrace> batch_log;
};

// Runs the serve simulation to completion (every admitted request served)
// and returns the report. Deterministic: equal configs give bit-identical
// reports regardless of host, thread count or wall-clock. Throws
// std::invalid_argument on inconsistent configuration (zero instances,
// tenants, max_batch or sessions, a negative think time, 2^32 or more
// requests) and on an arrival the simulated clock cannot hold (see
// arrival_time_ps).
ServeReport serve(BatchCostModel& cost, const ServeConfig& config);

}  // namespace maco::serve

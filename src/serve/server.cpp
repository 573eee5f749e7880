#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace maco::serve {
namespace {

constexpr sim::TimePs kNever = std::numeric_limits<sim::TimePs>::max();

double ps_to_ms(sim::TimePs ps) {
  return static_cast<double>(ps) / 1e9;
}

double ps_to_s(sim::TimePs ps) {
  return static_cast<double>(ps) / static_cast<double>(sim::kPsPerSecond);
}

void validate(const ServeConfig& config) {
  // Before the loop builds its batcher, which asserts the same invariants.
  if (config.instances == 0) {
    throw std::invalid_argument("serve needs >= 1 model instance");
  }
  if (config.arrival.tenants == 0) {
    throw std::invalid_argument("serve needs >= 1 tenant");
  }
  if (config.policy.max_batch == 0) {
    throw std::invalid_argument("serve needs max_batch >= 1");
  }
  if (config.closed_loop && config.concurrency == 0) {
    throw std::invalid_argument("closed loop needs >= 1 session");
  }
  if (config.closed_loop &&
      (!std::isfinite(config.think_s) || config.think_s < 0.0)) {
    throw std::invalid_argument("closed loop think_s must be >= 0");
  }
  if (config.closed_loop &&
      config.arrival.requests > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "requests must be below 2^32 (request ids are 32-bit)");
  }
}

// Discrete-event loop over three event kinds — request arrival, batcher
// forced-close deadline, batch completion — merged in virtual time. Ties
// resolve completion, then arrival, then deadline, so a request arriving
// exactly at a deadline still joins the closing window.
class ServeLoop {
 public:
  ServeLoop(BatchCostModel& cost, const ServeConfig& config)
      : cost_(cost),
        config_(config),
        batcher_(config.arrival.tenants, config.policy),
        think_rng_(0x7417ull ^ (config.arrival.seed * 0x94d049bb133111ebull)) {
    report_.tenants.resize(config.arrival.tenants);
    for (unsigned i = 0; i < config.instances; ++i) {
      instances_.push({0, i});
    }
    if (config.closed_loop) {
      const unsigned sessions = static_cast<unsigned>(std::min<std::uint64_t>(
          config.concurrency, config.arrival.requests));
      for (unsigned session = 0; session < sessions; ++session) {
        spawn(session % config.arrival.tenants, 0, draw_think_s());
      }
    } else {
      stream_.emplace(config.arrival);
      has_next_ = stream_->next(next_);
    }
  }

  ServeReport run() {
    while (step()) {
    }
    return finish();
  }

 private:
  struct Pending {  // a not-yet-admitted arrival (closed loop)
    sim::TimePs at;
    std::uint32_t id;
    std::uint32_t tenant;
    bool operator>(const Pending& other) const noexcept {
      return at != other.at ? at > other.at : id > other.id;
    }
  };

  struct Completion {
    sim::TimePs at;
    std::uint64_t seq;  // dispatch order breaks timestamp ties
    Batch batch;
    sim::TimePs exec_start;
    unsigned instance;  // which model instance ran the batch
    bool operator>(const Completion& other) const noexcept {
      return at != other.at ? at > other.at : seq > other.seq;
    }
  };

  using InstanceSlot = std::pair<sim::TimePs, unsigned>;  // free-at, index

  // Seconds of think time for the next closed-loop request: 0 without a
  // draw when think_s is 0.
  double draw_think_s() {
    if (config_.think_s <= 0.0) return 0.0;
    return -std::log(1.0 - think_rng_.next_double()) * config_.think_s;
  }

  // Issues a closed-loop request `think_s` after `after`, unless every
  // request has been issued.
  void spawn(unsigned tenant, sim::TimePs after, double think_s) {
    if (issued_ >= config_.arrival.requests) return;
    const sim::TimePs at = arrival_time_ps(think_s, "think_ms", after);
    pending_.push(
        Pending{at, static_cast<std::uint32_t>(issued_++), tenant});
  }

  sim::TimePs next_arrival() const {
    if (config_.closed_loop) {
      return pending_.empty() ? kNever : pending_.top().at;
    }
    return has_next_ ? next_.arrival_ps : kNever;
  }

  bool step() {
    const sim::TimePs t_completion =
        completions_.empty() ? kNever : completions_.front().at;
    const sim::TimePs t_arrival = next_arrival();
    const sim::TimePs t_deadline =
        batcher_.next_deadline().value_or(kNever);
    const sim::TimePs now = std::min({t_completion, t_arrival, t_deadline});
    if (now == kNever) return false;

    // Deadline events need no handler of their own: collect() seals every
    // queue whose window expired at `now`. Only then, or after an enqueue
    // that sealed, has it a batch to hand out.
    bool has_batches = t_deadline == now;
    if (t_completion == now) {
      std::pop_heap(completions_.begin(), completions_.end(),
                    std::greater<>{});
      complete(completions_.back());
      completions_.pop_back();
    } else if (t_arrival == now) {
      if (config_.closed_loop) {
        const Pending admitted = pending_.top();
        pending_.pop();
        has_batches |= batcher_.enqueue(admitted.id, admitted.tenant, now);
      } else {
        has_batches |= batcher_.enqueue(next_.id, next_.tenant, now);
        has_next_ = stream_->next(next_);
      }
    }
    if (has_batches) {
      for (Batch& batch : batcher_.collect(now)) {
        dispatch(std::move(batch));
      }
    }
    return true;
  }

  void dispatch(Batch&& batch) {
    const InstanceSlot slot = instances_.top();
    instances_.pop();
    // The instance free times of every earlier batch are already known, so
    // greedy earliest-free assignment at seal time is exact FIFO dispatch.
    const sim::TimePs start = std::max(batch.close_ps, slot.first);
    const sim::TimePs done = start + cost_.batch_makespan_ps(batch.size());
    instances_.push({done, slot.second});
    completions_.push_back(Completion{done, dispatch_seq_++, std::move(batch),
                                      start, slot.second});
    std::push_heap(completions_.begin(), completions_.end(),
                   std::greater<>{});
  }

  void complete(Completion& completion) {
    const Batch& batch = completion.batch;
    ++report_.batches;
    if (config_.record_trace) {
      report_.batch_log.push_back(ServeReport::BatchTrace{
          completion.instance, completion.seq, batch.size(), batch.close_ps,
          completion.exec_start, completion.at});
    }
    for (const Waiting& member : batch.requests) {
      Request request;
      request.id = member.request_id;
      request.tenant = batch.tenant;
      request.arrival_ps = member.arrival_ps;
      request.batch_close_ps = batch.close_ps;
      request.exec_start_ps = completion.exec_start;
      request.completion_ps = completion.at;
      record(request);
      if (config_.record_trace) report_.request_log.push_back(request);
      if (config_.closed_loop) {
        spawn(batch.tenant, completion.at, draw_think_s());
      }
    }
    batcher_.recycle(std::move(completion.batch.requests));
  }

  void record(const Request& request) {
    const double latency = ps_to_ms(request.latency_ps());
    report_.latency_ms.record(latency);
    report_.batching_ms.record(ps_to_ms(request.batching_delay_ps()));
    report_.queueing_ms.record(ps_to_ms(request.queueing_delay_ps()));
    report_.execution_ms.record(ps_to_ms(request.execution_ps()));
    ++report_.completed;
    TenantReport& tenant = report_.tenants[request.tenant];
    ++tenant.completed;
    tenant.latency_ms.record(latency);
    const bool within_slo = latency <= config_.slo_ms;
    if (within_slo) ++tenant.slo_met;
    last_arrival_ps_ = std::max(last_arrival_ps_, request.arrival_ps);
    last_completion_ps_ = std::max(last_completion_ps_, request.completion_ps);
  }

  ServeReport finish() {
    report_.duration_s = ps_to_s(last_completion_ps_);
    const double arrival_span_s = ps_to_s(last_arrival_ps_);
    const double completed = static_cast<double>(report_.completed);
    if (arrival_span_s > 0.0) {
      report_.offered_rps = completed / arrival_span_s;
    }
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
      report_.goodput_rps =
          static_cast<double>(slo_met) / report_.duration_s;
    }
    if (report_.completed > 0) {
      report_.slo_attainment =
          static_cast<double>(slo_met) / completed;
      report_.fairness =  // Jain's index over per-tenant completions
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
    // Completion order to id order: the log reads like the schedule.
    std::sort(report_.request_log.begin(), report_.request_log.end(),
              [](const Request& a, const Request& b) { return a.id < b.id; });
    return std::move(report_);
  }

  BatchCostModel& cost_;
  const ServeConfig& config_;
  DynamicBatcher batcher_;
  util::Rng think_rng_;

  std::optional<ArrivalStream> stream_;  // open loop
  Arrival next_;                         // open loop: the next arrival
  bool has_next_ = false;
  std::uint64_t issued_ = 0;  // closed loop: requests created so far
  std::uint64_t dispatch_seq_ = 0;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>>
      pending_;
  std::vector<Completion> completions_;  // min-heap on (at, seq)
  std::priority_queue<InstanceSlot, std::vector<InstanceSlot>,
                      std::greater<>>
      instances_;

  sim::TimePs last_arrival_ps_ = 0;
  sim::TimePs last_completion_ps_ = 0;
  ServeReport report_;
};

}  // namespace

ServeReport serve(BatchCostModel& cost, const ServeConfig& config) {
  validate(config);
  return ServeLoop(cost, config).run();
}

}  // namespace maco::serve

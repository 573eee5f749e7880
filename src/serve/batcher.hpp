// Admission queues and dynamic batching.
//
// Requests are admitted into per-tenant FIFO queues; the batcher seals a
// tenant's queue into a Batch under the classic dynamic-batching policy:
// the moment the queue reaches `max_batch` waiting requests, or when the
// oldest waiting request has waited `timeout_ps` (whichever comes first).
// Batches never mix tenants — a tenant is a model instance's admission
// domain, so a batch maps to one GEMM task list of one model at one batch
// size. timeout_ps == 0 degenerates to no batching: every request seals
// alone at its own arrival instant.
//
// The batcher is a pure state machine over simulated time: the serve loop
// feeds it arrivals (enqueue) and clock advances (collect), and asks for
// the next forced-close deadline so the event loop knows when to wake. A
// sealed batch carries its members' ids and arrival times, so the loop
// keeps no per-request state of its own; handing a finished batch's member
// buffer back (recycle) lets a later seal reuse it, so a batch allocates
// nothing in steady state.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace maco::serve {

struct BatchPolicy {
  unsigned max_batch = 8;            // seal immediately at this size
  sim::TimePs timeout_ps = 1000000;  // oldest-waiter age forcing a seal
};

// An admitted request: waiting in its tenant's queue, then a member of the
// batch that seals it (whose tenant is the member's tenant).
struct Waiting {
  std::uint32_t request_id = 0;
  sim::TimePs arrival_ps = 0;
};

// One sealed batch, ready for execution.
struct Batch {
  unsigned tenant = 0;
  std::vector<Waiting> requests;  // members, admission order
  sim::TimePs close_ps = 0;       // when the batch was sealed

  unsigned size() const noexcept {
    return static_cast<unsigned>(requests.size());
  }
};

class DynamicBatcher {
 public:
  DynamicBatcher(unsigned tenants, const BatchPolicy& policy);

  // Admits a request at `now` (its arrival time). Time must not go
  // backwards across calls. Sealed batches accumulate internally; drain
  // them with collect().
  void enqueue(std::uint32_t request_id, unsigned tenant, sim::TimePs now);

  // Earliest forced-close deadline over all tenants with waiting
  // requests; nullopt when every queue is empty.
  std::optional<sim::TimePs> next_deadline() const;

  // Advances the batcher clock to `now`, sealing every tenant queue whose
  // deadline has passed, and returns all batches sealed so far (size- and
  // timeout-sealed alike) in seal order. The caller may move the batches
  // out; the vector stays valid until the next collect().
  std::vector<Batch>& collect(sim::TimePs now);

  // Returns a finished batch's member buffer for reuse by a later seal.
  void recycle(std::vector<Waiting>&& members);

  // True when no request is waiting and no sealed batch is uncollected.
  bool idle() const noexcept;

  // Lifetime counters for the serve report.
  std::uint64_t batches_sealed() const noexcept { return batches_sealed_; }
  std::uint64_t requests_admitted() const noexcept {
    return requests_admitted_;
  }

 private:
  void seal(unsigned tenant, sim::TimePs close_ps);

  BatchPolicy policy_;
  std::vector<std::deque<Waiting>> queues_;  // per tenant
  std::vector<Batch> sealed_;     // sealed since the last collect()
  std::vector<Batch> collected_;  // what the last collect() returned
  std::vector<std::vector<Waiting>> spare_;  // recycled member buffers
  std::uint64_t batches_sealed_ = 0;
  std::uint64_t requests_admitted_ = 0;
};

}  // namespace maco::serve

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
// keeps no per-request state of its own.
//
// A queue never holds max_batch waiters once enqueue returns, so every
// seal takes its whole queue: the queue's buffer becomes the batch's
// member list. Handing a finished batch's buffer back (recycle) lets an
// emptied queue reuse it, so nothing is allocated per request in steady
// state. The non-empty queues sit in a min-heap keyed by (forced-close
// deadline, tenant), so the next deadline is a peek and a collect touches
// only the tenants whose deadline is due. An enqueue that opens a queue
// pushes one heap entry and a seal pops about one, each O(log n) in the
// heap's n entries: one per waiting tenant, plus at most one per size seal
// inside the last timeout window. Any other enqueue is O(1).
#pragma once

#include <cstdint>
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
  // backwards across calls. Returns true when the request sealed its
  // tenant's queue, at max_batch waiters or at once under timeout_ps == 0.
  // Sealed batches accumulate internally; drain them with collect().
  bool enqueue(std::uint32_t request_id, unsigned tenant, sim::TimePs now);

  // Earliest forced-close deadline over all tenants with waiting
  // requests; nullopt when every queue is empty.
  std::optional<sim::TimePs> next_deadline() const noexcept {
    if (deadlines_.empty()) return std::nullopt;
    return deadlines_.front().at;
  }

  // Advances the batcher clock to `now`, sealing every tenant queue whose
  // deadline has passed in (close time, tenant) order, and returns all
  // batches sealed since the last collect(): those enqueue() sealed, in
  // admission order, then those this call sealed. The caller may move the
  // batches out; the vector stays valid until the next collect().
  std::vector<Batch>& collect(sim::TimePs now);

  // Returns a finished batch's member buffer for reuse as a queue.
  void recycle(std::vector<Waiting>&& members);

 private:
  // A tenant's forced-close deadline: its oldest waiter's arrival plus
  // timeout_ps.
  struct Deadline {
    sim::TimePs at;
    unsigned tenant;
    bool operator>(const Deadline& other) const noexcept {
      return at != other.at ? at > other.at : tenant > other.tenant;
    }
  };

  void seal(unsigned tenant, sim::TimePs close_ps);
  // Pops heap entries whose queue was sealed since they were pushed, so
  // the heap's top is always a waiting queue's deadline.
  void drop_stale();

  BatchPolicy policy_;
  std::vector<std::vector<Waiting>> queues_;  // per tenant
  // Min-heap: one entry per non-empty queue, plus entries of queues sealed
  // by size before their deadline, which drop_stale() discards lazily.
  std::vector<Deadline> deadlines_;
  std::vector<Batch> sealed_;     // sealed since the last collect()
  std::vector<Batch> collected_;  // what the last collect() returned
  std::vector<std::vector<Waiting>> spare_;  // recycled member buffers
};

}  // namespace maco::serve

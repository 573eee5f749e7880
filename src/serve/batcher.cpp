#include "serve/batcher.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace maco::serve {

DynamicBatcher::DynamicBatcher(unsigned tenants, const BatchPolicy& policy)
    : policy_(policy), queues_(tenants) {
  MACO_ASSERT(tenants >= 1 && policy.max_batch >= 1);
}

void DynamicBatcher::seal(unsigned tenant, sim::TimePs close_ps) {
  std::deque<Waiting>& queue = queues_[tenant];
  Batch& batch = sealed_.emplace_back();
  batch.tenant = tenant;
  batch.close_ps = close_ps;
  if (!spare_.empty()) {
    batch.requests = std::move(spare_.back());
    spare_.pop_back();
  }
  const unsigned take =
      std::min<unsigned>(policy_.max_batch,
                         static_cast<unsigned>(queue.size()));
  batch.requests.reserve(take);
  for (unsigned i = 0; i < take; ++i) {
    batch.requests.push_back(queue.front());
    queue.pop_front();
  }
  ++batches_sealed_;
}

void DynamicBatcher::enqueue(std::uint32_t request_id, unsigned tenant,
                             sim::TimePs now) {
  MACO_ASSERT(tenant < queues_.size());
  ++requests_admitted_;
  queues_[tenant].push_back(Waiting{request_id, now});
  if (queues_[tenant].size() >= policy_.max_batch ||
      policy_.timeout_ps == 0) {
    seal(tenant, now);
  }
}

std::optional<sim::TimePs> DynamicBatcher::next_deadline() const {
  std::optional<sim::TimePs> deadline;
  for (const std::deque<Waiting>& queue : queues_) {
    if (queue.empty()) continue;
    const sim::TimePs due = queue.front().arrival_ps + policy_.timeout_ps;
    if (!deadline || due < *deadline) deadline = due;
  }
  return deadline;
}

std::vector<Batch>& DynamicBatcher::collect(sim::TimePs now) {
  for (unsigned tenant = 0; tenant < queues_.size(); ++tenant) {
    // A seal can leave further timed-out waiters behind (more than
    // max_batch arrived inside one window): keep sealing until the
    // oldest survivor is within its window.
    while (!queues_[tenant].empty() &&
           queues_[tenant].front().arrival_ps + policy_.timeout_ps <= now) {
      seal(tenant, queues_[tenant].front().arrival_ps + policy_.timeout_ps);
    }
  }
  // Swap rather than hand out sealed_: both buffers keep their capacity,
  // and the batches the caller moved out leave only empty shells behind.
  collected_.clear();
  collected_.swap(sealed_);
  return collected_;
}

void DynamicBatcher::recycle(std::vector<Waiting>&& members) {
  members.clear();
  spare_.push_back(std::move(members));
}

bool DynamicBatcher::idle() const noexcept {
  if (!sealed_.empty()) return false;
  for (const std::deque<Waiting>& queue : queues_) {
    if (!queue.empty()) return false;
  }
  return true;
}

}  // namespace maco::serve

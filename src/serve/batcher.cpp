#include "serve/batcher.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/assert.hpp"

namespace maco::serve {

DynamicBatcher::DynamicBatcher(unsigned tenants, const BatchPolicy& policy)
    : policy_(policy), queues_(tenants) {
  MACO_ASSERT(tenants >= 1 && policy.max_batch >= 1);
}

void DynamicBatcher::seal(unsigned tenant, sim::TimePs close_ps) {
  Batch& batch = sealed_.emplace_back();
  batch.tenant = tenant;
  batch.close_ps = close_ps;
  std::vector<Waiting>& queue = queues_[tenant];
  batch.requests.swap(queue);
  if (!spare_.empty()) {
    queue.swap(spare_.back());
    spare_.pop_back();
  }
}

void DynamicBatcher::drop_stale() {
  while (!deadlines_.empty()) {
    const Deadline& top = deadlines_.front();
    const std::vector<Waiting>& queue = queues_[top.tenant];
    if (!queue.empty() &&
        queue.front().arrival_ps + policy_.timeout_ps == top.at) {
      return;
    }
    std::pop_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
    deadlines_.pop_back();
  }
}

bool DynamicBatcher::enqueue(std::uint32_t request_id, unsigned tenant,
                             sim::TimePs now) {
  MACO_ASSERT(tenant < queues_.size());
  std::vector<Waiting>& queue = queues_[tenant];
  queue.push_back(Waiting{request_id, now});
  if (queue.size() >= policy_.max_batch || policy_.timeout_ps == 0) {
    seal(tenant, now);
    drop_stale();
    return true;
  }
  if (queue.size() == 1) {
    deadlines_.push_back(Deadline{now + policy_.timeout_ps, tenant});
    std::push_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
  }
  return false;
}

std::vector<Batch>& DynamicBatcher::collect(sim::TimePs now) {
  // The heap's top is always a waiting queue's deadline (drop_stale), and
  // the seal empties that queue.
  while (!deadlines_.empty() && deadlines_.front().at <= now) {
    const Deadline due = deadlines_.front();
    std::pop_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
    deadlines_.pop_back();
    seal(due.tenant, due.at);
    drop_stale();
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

}  // namespace maco::serve

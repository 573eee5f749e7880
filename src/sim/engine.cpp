#include "sim/engine.hpp"

#include "util/assert.hpp"

namespace maco::sim {

void SimEngine::schedule_at(TimePs at, Action action) {
  MACO_ASSERT_MSG(at >= now_,
                  "scheduling into the past: at=" << at << " now=" << now_);
  queue_.push(Event{at, next_seq_++, std::move(action)});
}

void SimEngine::fire_next() {
  // priority_queue::top returns const&; the event must be moved out before
  // pop so the action survives, hence the const_cast idiom.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.time;
  ++events_executed_;
  ev.action();
}

TimePs SimEngine::run() {
  while (!queue_.empty()) fire_next();
  return now_;
}

TimePs SimEngine::run_until(TimePs deadline) {
  while (!queue_.empty() && queue_.top().time <= deadline) fire_next();
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace maco::sim

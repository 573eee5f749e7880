// Discrete-event simulation engine.
//
// Single-threaded by design: determinism comes from the (time, sequence)
// total order on events, so two events at the same picosecond fire in
// scheduling order. Time advances straight from one event to the next;
// a component with its own clock schedules an event per busy cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace maco::sim {

class SimEngine {
 public:
  using Action = std::function<void()>;

  SimEngine() = default;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  TimePs now() const noexcept { return now_; }

  // Schedule `action` to fire at absolute time `at` (>= now).
  void schedule_at(TimePs at, Action action);
  // Schedule `action` to fire `delay` ps from now.
  void schedule_after(TimePs delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  // Runs until the event queue drains. Returns the time of the last event.
  TimePs run();
  // Runs events with time <= deadline; later events remain pending.
  TimePs run_until(TimePs deadline);
  // True if no events are pending.
  bool idle() const noexcept { return queue_.empty(); }
  std::size_t pending_events() const noexcept { return queue_.size(); }

  std::uint64_t events_executed() const noexcept { return events_executed_; }

 private:
  struct Event {
    TimePs time;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Pops the queue head, advances now() to it and fires it.
  void fire_next();

  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace maco::sim

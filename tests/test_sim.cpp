#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace maco::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  // A far-future event (a DRAM completion megacycles out) must still fire,
  // and run() returns its time.
  engine.schedule_at(50'000'000, [&] { order.push_back(4); });
  engine.schedule_at(300, [&] { order.push_back(3); });
  engine.schedule_at(100, [&] { order.push_back(1); });
  engine.schedule_at(200, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 50'000'000u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(engine.now(), 50'000'000u);
}

TEST(Engine, SameTimeFifoBySchedulingOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(100, [&] { order.push_back(1); });
  engine.schedule_at(100, [&] { order.push_back(2); });
  engine.schedule_at(100, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, NestedScheduling) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(10, [&] {
    engine.schedule_after(5, [&] { ++fired; });
  });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 15u);
}

TEST(Engine, RunUntilLeavesLaterEvents) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(10, [&] { ++fired; });
  engine.schedule_at(100, [&] { ++fired; });
  engine.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_EQ(engine.now(), 50u);
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventCountTracked) {
  SimEngine engine;
  for (int i = 0; i < 10; ++i) engine.schedule_at(i, [] {});
  engine.run();
  EXPECT_EQ(engine.events_executed(), 10u);
}

}  // namespace
}  // namespace maco::sim

namespace maco::sim {
namespace {

TEST(SimEngineMore, SameTimeEventsFireInSchedulingOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(100, [&] { order.push_back(1); });
  engine.schedule_at(100, [&] { order.push_back(2); });
  engine.schedule_at(50, [&] { order.push_back(0); });
  engine.schedule_at(100, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimEngineMore, EventsScheduledByEventsRun) {
  SimEngine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) engine.schedule_after(10, chain);
  };
  engine.schedule_at(0, chain);
  const TimePs end = engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(end, 40u);
  EXPECT_EQ(engine.events_executed(), 5u);
}

TEST(SimEngineMore, RunUntilLeavesLaterEventsQueued) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(10, [&] { ++fired; });
  engine.schedule_at(20, [&] { ++fired; });
  engine.schedule_at(30, [&] { ++fired; });
  engine.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run();
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(engine.idle());
}

}  // namespace
}  // namespace maco::sim

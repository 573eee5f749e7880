#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.hpp"
#include "sim/component.hpp"
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

TEST(Clock, PaperFrequencies) {
  EXPECT_EQ(make_cpu_clock().period_ps(), 455u);   // 2.2 GHz rounded
  EXPECT_EQ(make_mmae_clock().period_ps(), 400u);  // 2.5 GHz exact
  EXPECT_EQ(make_noc_clock().period_ps(), 500u);   // 2.0 GHz exact
}

TEST(Clock, CycleConversions) {
  const ClockDomain mmae = make_mmae_clock();
  EXPECT_EQ(mmae.cycles_to_ps(1000), 400'000u);
  EXPECT_EQ(mmae.ps_to_cycles(400'000), 1000u);
  EXPECT_EQ(mmae.ps_to_cycles(401), 2u);  // partial cycles round up
  EXPECT_EQ(mmae.next_edge_at_or_after(401), 800u);
  EXPECT_EQ(mmae.next_edge_at_or_after(400), 400u);
}

TEST(Component, HierarchicalNamesAndStats) {
  SimEngine engine;
  Component parent(engine, "node0");
  Component child(parent, "mmae");
  EXPECT_EQ(child.name(), "node0.mmae");
  child.counter("ops").inc(5);
  EXPECT_EQ(engine.stats().counter("node0.mmae.ops").value(), 5u);
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

TEST(ClockDomainMore, PaperFrequenciesRoundToDocumentedPeriods) {
  EXPECT_EQ(make_cpu_clock().period_ps(), 455u);   // 2.2 GHz (+0.1%)
  EXPECT_EQ(make_mmae_clock().period_ps(), 400u);  // 2.5 GHz exact
  EXPECT_EQ(make_noc_clock().period_ps(), 500u);   // 2.0 GHz exact
}

TEST(ClockDomainMore, CycleConversionsRoundTrip) {
  const ClockDomain clock = make_mmae_clock();
  for (const Cycles c : {1ull, 7ull, 1000ull, 123456ull}) {
    EXPECT_EQ(clock.ps_to_cycles(clock.cycles_to_ps(c)), c);
  }
}

TEST(ClockDomainMore, NextEdgeAligns) {
  const ClockDomain clock = make_noc_clock();  // 500 ps
  EXPECT_EQ(clock.next_edge_at_or_after(0), 0u);
  EXPECT_EQ(clock.next_edge_at_or_after(1), 500u);
  EXPECT_EQ(clock.next_edge_at_or_after(500), 500u);
  EXPECT_EQ(clock.next_edge_at_or_after(501), 1000u);
}

}  // namespace
}  // namespace maco::sim

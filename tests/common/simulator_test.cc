#include "common/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace thunderbolt::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(100, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleAfterUsesNow) {
  Simulator sim;
  SimTime fired_at = 0;
  sim.ScheduleAt(50, [&] {
    sim.ScheduleAfter(25, [&] { fired_at = sim.Now(); });
  });
  sim.RunAll();
  EXPECT_EQ(fired_at, 75u);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.ScheduleAt(100, [] {});
  sim.RunAll();
  bool ran = false;
  sim.ScheduleAt(10, [&] {
    ran = true;
    EXPECT_EQ(sim.Now(), 100u);
  });
  sim.RunAll();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) {
    sim.ScheduleAt(t, [&fired, &sim] { fired.push_back(sim.Now()); });
  }
  uint64_t executed = sim.RunUntil(25);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(sim.Now(), 25u);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  sim.RunUntil(100);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.ScheduleAfter(5, recurse);
  };
  sim.ScheduleAt(0, recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 45u);
}

TEST(SimulatorTest, MaxEventsGuard) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.ScheduleAfter(1, forever); };
  sim.ScheduleAt(0, forever);
  uint64_t executed = sim.RunAll(1000);
  EXPECT_EQ(executed, 1000u);
}

TEST(SimulatorTest, IdleAndPendingCounts) {
  Simulator sim;
  EXPECT_TRUE(sim.Idle());
  sim.ScheduleAt(5, [] {});
  EXPECT_FALSE(sim.Idle());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunAll();
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.executed_events(), 1u);
}

}  // namespace
}  // namespace thunderbolt::sim

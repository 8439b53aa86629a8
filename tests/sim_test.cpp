// Unit tests for the discrete-event kernel: ordering, cancellation, clock
// semantics, run-until behaviour.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/simulator.h"

namespace ks = keddah::sim;

TEST(Simulator, StartsAtZero) {
  ks::Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  ks::Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, FifoForEqualTimes) {
  ks::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  ks::Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] { sim.schedule_in(2.5, [&] { fired_at = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, PastSchedulingThrows) {
  ks::Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  ks::Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  ks::Simulator sim;
  const auto id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelFiredEventIsNoop) {
  ks::Simulator sim;
  const auto id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelInvalidIsNoop) {
  ks::Simulator sim;
  EXPECT_FALSE(sim.cancel(ks::kInvalidEvent));
  EXPECT_FALSE(sim.cancel(123456));
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  ks::Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  const auto executed = sim.run(5.0);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  // Clock advances to the horizon even though no event fired there.
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  // The later event still fires afterwards.
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, EventsCanScheduleEvents) {
  ks::Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_in(0.5, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 49.5);
}

TEST(Simulator, StepExecutesSingleEvent) {
  ks::Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PendingCountsLiveEventsOnly) {
  ks::Simulator sim;
  const auto a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime) {
  ks::Simulator sim;
  double at = -1.0;
  sim.schedule_at(2.0, [&] { sim.schedule_in(0.0, [&] { at = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(at, 2.0);
}

TEST(Simulator, CancellationInsideCallback) {
  ks::Simulator sim;
  bool later_fired = false;
  ks::EventId later = ks::kInvalidEvent;
  later = sim.schedule_at(5.0, [&] { later_fired = true; });
  sim.schedule_at(1.0, [&] { sim.cancel(later); });
  sim.run();
  EXPECT_FALSE(later_fired);
}

// A handle outlives its event: once the event fired or was cancelled, its
// slot is reused, and the stale handle must not reach the new occupant.
TEST(Simulator, StaleHandleNeverReachesTheSlotsNextOccupant) {
  ks::Simulator sim;
  const auto fired = sim.schedule_at(1.0, [] {});
  sim.run();
  const auto cancelled = sim.schedule_at(2.0, [] {});
  ASSERT_TRUE(sim.cancel(cancelled));
  int next_fired = 0;
  const auto next = sim.schedule_at(3.0, [&] { ++next_fired; });
  EXPECT_NE(next, fired);
  EXPECT_NE(next, cancelled);
  for (const auto stale : {fired, cancelled}) {
    EXPECT_FALSE(sim.cancel(stale));
    EXPECT_EQ(sim.reschedule(stale, 5.0), ks::kInvalidEvent);
  }
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(next_fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // the stale reschedule moved nothing
}

TEST(Simulator, RescheduleThenCancel) {
  ks::Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(1.0, [&] { fired = true; });
  const auto moved = sim.reschedule(id, 4.0);
  ASSERT_NE(moved, ks::kInvalidEvent);
  EXPECT_NE(moved, id);
  EXPECT_FALSE(sim.cancel(id));  // the old handle died with the move
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(moved));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(fired);
}

TEST(Simulator, PendingStaysExactThroughReschedule) {
  ks::Simulator sim;
  std::vector<double> fired_at;
  auto id = sim.schedule_at(1.0, [&] { fired_at.push_back(sim.now()); });
  sim.schedule_at(2.0, [&] { fired_at.push_back(sim.now()); });
  for (const double at : {5.0, 0.5, 3.0}) {
    id = sim.reschedule(id, at);
    EXPECT_EQ(sim.pending(), 2u);
  }
  EXPECT_THROW(sim.reschedule(id, -1.0), std::invalid_argument);
  EXPECT_EQ(sim.pending(), 2u);  // a refused move keeps the event
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired_at, (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 2u);
}

// A callback that schedules many events grows the slot table while it runs;
// its own captured state must stay intact, and dispatch order stays
// (time, scheduling order).
TEST(Simulator, CallbackGrowsTheSlotTableDuringItsOwnDispatch) {
  ks::Simulator sim;
  std::vector<int> order;
  const std::vector<int> payload(64, 7);
  sim.schedule_at(1.0, [&sim, &order, payload] {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(2.0 + (i % 3), [&order, i] { order.push_back(i); });
    }
    // Still readable after the table grew under this callback.
    order.push_back(-static_cast<int>(payload.size()) - payload.back());
  });
  sim.run();
  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order.front(), -71);
  std::vector<int> want;
  for (int bucket = 0; bucket < 3; ++bucket) {
    for (int i = bucket; i < 1000; i += 3) want.push_back(i);
  }
  EXPECT_EQ(std::vector<int>(order.begin() + 1, order.end()), want);
  EXPECT_EQ(sim.executed(), 1001u);
  EXPECT_EQ(sim.pending(), 0u);
}

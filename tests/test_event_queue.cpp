#include "simnet/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace reuse::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue events;
  std::vector<int> order;
  events.schedule_at(net::SimTime(30), [&] { order.push_back(3); });
  events.schedule_at(net::SimTime(10), [&] { order.push_back(1); });
  events.schedule_at(net::SimTime(20), [&] { order.push_back(2); });
  events.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(events.now(), net::SimTime(30));
  EXPECT_EQ(events.executed(), 3u);
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue events;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    events.schedule_at(net::SimTime(5), [&order, i] { order.push_back(i); });
  }
  events.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue events;
  net::SimTime inner_fired;
  events.schedule_at(net::SimTime(100), [&] {
    events.schedule_after(net::Duration::seconds(50),
                          [&] { inner_fired = events.now(); });
  });
  events.run_all();
  EXPECT_EQ(inner_fired, net::SimTime(150));
}

TEST(EventQueue, RunUntilStopsBeforeDeadlineAndAdvancesClock) {
  EventQueue events;
  int fired = 0;
  events.schedule_at(net::SimTime(10), [&] { ++fired; });
  events.schedule_at(net::SimTime(20), [&] { ++fired; });
  events.run_until(net::SimTime(20));  // events strictly before 20
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(events.now(), net::SimTime(20));
  EXPECT_EQ(events.pending(), 1u);
  events.run_until(net::SimTime(21));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue events;
  events.schedule_at(net::SimTime(100), [] {});
  events.run_all();
  EXPECT_THROW(events.schedule_at(net::SimTime(50), [] {}),
               std::invalid_argument);
}

TEST(EventQueue, EventsCanCascade) {
  EventQueue events;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      events.schedule_after(net::Duration::seconds(1), recurse);
    }
  };
  events.schedule_at(net::SimTime(0), recurse);
  events.run_all();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(events.now(), net::SimTime(99));
}

TEST(EventQueue, NextTimePeeksTheEarliestPendingEvent) {
  EventQueue events;
  EXPECT_FALSE(events.next_time().has_value());
  events.schedule_at(net::SimTime(30), [] {});
  events.schedule_at(net::SimTime(10), [] {});
  EXPECT_EQ(events.next_time(), net::SimTime(10));
  events.run_next();
  EXPECT_EQ(events.next_time(), net::SimTime(30));
  EXPECT_EQ(events.executed(), 1u);
  events.run_next();
  EXPECT_FALSE(events.next_time().has_value());
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue events;
  EXPECT_FALSE(events.run_next());
}

}  // namespace
}  // namespace reuse::sim

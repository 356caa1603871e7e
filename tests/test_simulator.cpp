#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace beesim::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsFireInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CallbacksMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.scheduleAfter(1.0, chain);
  };
  sim.scheduleAfter(1.0, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule(1.0, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireLeavesNoBacklog) {
  // Regression: cancelling an event that already fired (or never existed)
  // used to park the id in the cancelled-set forever, leaking memory over a
  // long campaign.  Only ids still in the queue may enter the backlog.
  Simulator sim;
  const auto id = sim.schedule(1.0, [] {});
  sim.run();
  sim.cancel(id);               // already fired
  sim.cancel(EventId{12345});   // never scheduled
  EXPECT_EQ(sim.cancelledBacklog(), 0u);
}

TEST(Simulator, CancelledBacklogDrainsWhenEventsExpire) {
  Simulator sim;
  const auto id = sim.schedule(1.0, [] {});
  sim.cancel(id);
  EXPECT_EQ(sim.cancelledBacklog(), 1u);
  sim.run();  // the cancelled event is skipped and its marker retired
  EXPECT_EQ(sim.cancelledBacklog(), 0u);
}

TEST(Simulator, StaleCancelDoesNotHitRecycledSlot) {
  // The event pool recycles slots; a handle kept past its event's firing
  // must not cancel whatever event reuses the slot (generation stamp).
  Simulator sim;
  const auto a = sim.schedule(1.0, [] {});
  sim.run();
  bool ran = false;
  sim.schedule(2.0, [&] { ran = true; });  // reuses a's slot
  sim.cancel(a);                           // stale handle
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.cancelledBacklog(), 0u);
}

TEST(Simulator, CancelUnknownIdIsHarmless) {
  Simulator sim;
  sim.cancel(EventId{999});
  bool ran = false;
  sim.schedule(1.0, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, NextSequenceCountsScheduledEvents) {
  // Only scheduling advances the sequence: callers compare two reads to
  // learn whether any event was scheduled in between.
  Simulator sim;
  const auto first = sim.nextSequence();
  const auto id = sim.schedule(1.0, [] {});
  sim.scheduleAfter(0.5, [] {});
  EXPECT_EQ(sim.nextSequence(), first + 2);
  sim.cancel(id);
  ASSERT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  sim.runUntil(3.0);
  EXPECT_EQ(sim.nextSequence(), first + 2);
  sim.schedule(3.0, [&sim] { sim.scheduleAfter(0.0, [] {}); });
  sim.run();
  EXPECT_EQ(sim.nextSequence(), first + 4);
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule(t, [&fired, t] { fired.push_back(t); });
  }
  EXPECT_EQ(sim.runUntil(2.5), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.run(), 2u);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.runUntil(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule(4.0, [] {}), util::ContractError);
  EXPECT_THROW(sim.scheduleAfter(-1.0, [] {}), util::ContractError);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(1.0, nullptr), util::ContractError);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

/// Drive `sim` through a deterministic but adversarial schedule -- duplicate
/// timestamps, cancellations (pending, fired and stale), callbacks that
/// schedule and cancel more events -- and return the dispatch order.
std::vector<int> adversarialDispatchOrder(Simulator& sim) {
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 40; ++i) {
    // Timestamps collide on purpose: i%7 buckets, FIFO inside each.
    ids.push_back(sim.schedule(1.0 + i % 7, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 40; i += 5) sim.cancel(ids[i]);  // pending cancels
  sim.schedule(2.5, [&] {
    order.push_back(100);
    for (int i = 1; i < 40; i += 10) sim.cancel(ids[i]);  // mid-run cancels
    sim.schedule(2.5, [&order] { order.push_back(101); });  // same instant
    sim.scheduleAfter(10.0, [&order] { order.push_back(102); });
  });
  sim.runUntil(3.0);
  sim.cancel(ids[3]);  // stale cancel: already fired at t=1+3
  sim.run();
  return order;
}

TEST(Simulator, AdversarialDispatchOrderIsPinned) {
  // (time, sequence) is a total order -- every event carries a globally
  // unique sequence number -- so the dispatch sequence is fully determined.
  // Golden-CSV byte-identity across builds rests on exactly this property,
  // so any change to the queue's internals must reproduce this sequence.
  Simulator sim;
  const std::vector<int> expected{7,  14, 21, 28, 1,  8,  22, 29, 36, 100, 101,
                                  2,  9,  16, 23, 37, 17, 24, 38, 4,  18,  32,
                                  39, 12, 19, 26, 33, 6,  13, 27, 34, 102};
  EXPECT_EQ(adversarialDispatchOrder(sim), expected);
}

TEST(Simulator, RunUntilStopsAtLimitWithCancelledFront) {
  // A cancelled event sitting at the global front must not make runUntil
  // overshoot: the purge retires it so the clock advances to the limit, not
  // to the next live event's timestamp.
  Simulator sim;
  bool lateRan = false;
  const auto cancelled = sim.schedule(1.0, [] { FAIL() << "cancelled event ran"; });
  sim.schedule(5.0, [&] { lateRan = true; });
  sim.cancel(cancelled);
  EXPECT_EQ(sim.runUntil(2.0), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_FALSE(lateRan);
  sim.run();
  EXPECT_TRUE(lateRan);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

}  // namespace
}  // namespace beesim::sim

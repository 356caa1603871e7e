#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim::sim {
namespace {

using namespace beesim::util::literals;

ResourceIndex addLink(FluidSimulator& fluid, const std::string& name, double capacity) {
  return fluid.addResource(ResourceSpec{name, constantCapacity(capacity)});
}

TEST(Fluid, SingleFlowTransferTime) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  FlowStats stats;
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 1_GiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats& s) { stats = s; }});
  fluid.run();
  EXPECT_NEAR(stats.endTime, 1024.0 / 100.0, 1e-6);
  EXPECT_NEAR(stats.meanRate(), 100.0, 1e-6);
}

TEST(Fluid, TwoEqualFlowsShareAndFinishTogether) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  std::vector<double> ends;
  for (int i = 0; i < 2; ++i) {
    fluid.startFlow(FlowSpec{.path = {link},
                             .bytes = 512_MiB,
                             .queueWeight = 1.0,
                             .rateCap = 0.0,
                             .onComplete = [&](const FlowStats& s) { ends.push_back(s.endTime); }});
  }
  fluid.run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_NEAR(ends[0], 1024.0 / 100.0, 1e-6);  // both at 50 MiB/s
  EXPECT_NEAR(ends[1], 1024.0 / 100.0, 1e-6);
}

TEST(Fluid, ShortFlowFinishesAndLongFlowSpeedsUp) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  double shortEnd = 0.0;
  double longEnd = 0.0;
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 100_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats& s) { shortEnd = s.endTime; }});
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 300_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats& s) { longEnd = s.endTime; }});
  fluid.run();
  // Phase 1: both at 50 until the short one's 100 MiB drain at t=2.
  EXPECT_NEAR(shortEnd, 2.0, 1e-6);
  // Phase 2: the long flow has 200 MiB left, now at 100 MiB/s -> +2s.
  EXPECT_NEAR(longEnd, 4.0, 1e-6);
}

TEST(Fluid, RateCapHolds) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  FlowStats stats;
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 100_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 25.0,
                           .onComplete = [&](const FlowStats& s) { stats = s; }});
  fluid.run();
  EXPECT_NEAR(stats.endTime, 4.0, 1e-6);
}

TEST(Fluid, MultiResourcePathTakesMinimum) {
  FluidSimulator fluid;
  const auto a = addLink(fluid, "a", 200.0);
  const auto b = addLink(fluid, "b", 50.0);
  const auto c = addLink(fluid, "c", 100.0);
  FlowStats stats;
  fluid.startFlow(FlowSpec{.path = {a, b, c},
                           .bytes = 100_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats& s) { stats = s; }});
  fluid.run();
  EXPECT_NEAR(stats.endTime, 2.0, 1e-6);
}

TEST(Fluid, ZeroByteFlowCompletesImmediately) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  bool completed = false;
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 0,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats& s) {
                             completed = true;
                             EXPECT_DOUBLE_EQ(s.endTime, s.startTime);
                           }});
  fluid.run();
  EXPECT_TRUE(completed);
}

TEST(Fluid, DelayedStartViaStartFlowAt) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  FlowStats stats;
  fluid.engine().schedule(5.0, [&] {
    fluid.startFlow(FlowSpec{.path = {link},
                             .bytes = 100_MiB,
                             .queueWeight = 1.0,
                             .rateCap = 0.0,
                             .onComplete = [&](const FlowStats& s) { stats = s; }});
  });
  fluid.run();
  EXPECT_NEAR(stats.startTime, 5.0, 1e-9);
  EXPECT_NEAR(stats.endTime, 6.0, 1e-6);
}

TEST(Fluid, LoadDependentCapacitySeesQueueDepth) {
  // Capacity = 10 * queueDepth: two flows of weight 3 -> capacity 60,
  // 30 each.
  FluidSimulator fluid;
  const auto device = fluid.addResource(ResourceSpec{
      "device", [](const ResourceLoad& load) { return 10.0 * load.queueDepth; }});
  std::vector<double> ends;
  for (int i = 0; i < 2; ++i) {
    fluid.startFlow(FlowSpec{.path = {device},
                             .bytes = 30_MiB,
                             .queueWeight = 3.0,
                             .rateCap = 0.0,
                             .onComplete = [&](const FlowStats& s) { ends.push_back(s.endTime); }});
  }
  fluid.run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_NEAR(ends[0], 1.0, 1e-6);
  EXPECT_NEAR(ends[1], 1.0, 1e-6);
}

TEST(Fluid, TimeDependentCapacityRefreshedByResolveInterval) {
  // Capacity doubles after t=1; with periodic re-solve the 150 MiB flow
  // finishes at t=1.5 instead of 3.0.
  FluidSimulator fluid;
  const auto link = fluid.addResource(ResourceSpec{
      "ramp", [](const ResourceLoad& load) { return load.time < 0.999 ? 50.0 : 200.0; }});
  fluid.setResolveInterval(0.25);
  FlowStats stats;
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 150_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats& s) { stats = s; }});
  fluid.run();
  // 50 MiB/s for 1s (50 MiB), then 200 MiB/s for the remaining 100 MiB.
  EXPECT_NEAR(stats.endTime, 1.5, 0.01);
}

TEST(Fluid, StalledFlowsAreDetectedAsDeadlock) {
  FluidSimulator fluid;
  const auto dead = addLink(fluid, "dead", 0.0);
  fluid.startFlow(FlowSpec{.path = {dead}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  EXPECT_THROW(fluid.run(), util::ContractError);
}

TEST(Fluid, FlowRateQueryReflectsFairShare) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  const auto f1 = fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_GiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  const auto f2 = fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_GiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  // Let the resolve event run.
  fluid.engine().runUntil(0.0);
  EXPECT_NEAR(fluid.flowRate(f1), 50.0, 1e-9);
  EXPECT_NEAR(fluid.flowRate(f2), 50.0, 1e-9);
  EXPECT_EQ(fluid.activeFlows(), 2u);
  fluid.run();
  EXPECT_EQ(fluid.activeFlows(), 0u);
  EXPECT_DOUBLE_EQ(fluid.flowRate(f1), 0.0);
}

TEST(Fluid, InvalidFlowSpecsThrow) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  EXPECT_THROW(fluid.startFlow(FlowSpec{.path = {}, .bytes = 1_MiB, .queueWeight = 1.0,
                                        .rateCap = 0.0, .onComplete = nullptr}),
               util::ContractError);
  EXPECT_THROW(fluid.startFlow(FlowSpec{.path = {ResourceIndex{99}}, .bytes = 1_MiB,
                                        .queueWeight = 1.0, .rateCap = 0.0,
                                        .onComplete = nullptr}),
               util::ContractError);
  (void)link;
}

TEST(Fluid, ResourceNamesAreQueryable) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "my-link", 10.0);
  EXPECT_EQ(fluid.resourceName(link), "my-link");
  EXPECT_EQ(fluid.resourceCount(), 1u);
}

TEST(Fluid, TimeAdvancesAtLargeVirtualTimes) {
  // Regression: a nearly-finished flow at a large virtual time used to
  // schedule its completion wakeup below the clock's double granularity,
  // respinning at the same instant forever (the randomized-block protocol
  // lays runs out at ~1e5 s offsets, which triggered this).
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 1000.0);
  bool done = false;
  fluid.engine().schedule(2.0e5, [&] {
    fluid.startFlow(FlowSpec{.path = {link},
                             .bytes = 100_MiB,
                             .queueWeight = 1.0,
                             .rateCap = 0.0,
                             .onComplete = [&](const FlowStats& s) {
                               done = true;
                               EXPECT_NEAR(s.endTime, 2.0e5 + 0.1, 1e-3);
                             }});
  });
  fluid.setResolveInterval(0.25);
  fluid.run();
  EXPECT_TRUE(done);
}

TEST(Fluid, ManyFlowsConserveBytes) {
  // 16 flows with staggered sizes over one link: total transfer time equals
  // total bytes / capacity regardless of the completion pattern.
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 128.0);
  double lastEnd = 0.0;
  util::Bytes total = 0;
  for (int i = 1; i <= 16; ++i) {
    const util::Bytes bytes = static_cast<util::Bytes>(i) * 8_MiB;
    total += bytes;
    fluid.startFlow(FlowSpec{.path = {link},
                             .bytes = bytes,
                             .queueWeight = 1.0,
                             .rateCap = 0.0,
                             .onComplete = [&](const FlowStats& s) {
                               lastEnd = std::max(lastEnd, s.endTime);
                             }});
  }
  fluid.run();
  EXPECT_NEAR(lastEnd, util::toMiB(total) / 128.0, 1e-6);
}

/// Minimal observer counting start/complete callbacks per flow id.
class CountingObserver : public FluidObserver {
 public:
  void onFlowStarted(FlowId id, std::span<const ResourceIndex>, util::Bytes,
                     SimTime) override {
    started.push_back(id.value);
  }
  void onRatesSolved(SimTime, std::span<const FlowId>, std::span<const util::MiBps>,
                     std::size_t) override {}
  void onFlowCompleted(const FlowStats& stats) override {
    completed.push_back(stats.id.value);
  }

  std::vector<std::uint64_t> started;
  std::vector<std::uint64_t> completed;
};

TEST(Fluid, ZeroByteFlowEmitsObserverEvents) {
  // Regression: the zero-byte fast path used to bypass the observer, so
  // traces silently dropped empty transfers while their onComplete still ran.
  FluidSimulator fluid;
  CountingObserver observer;
  fluid.addObserver(&observer);
  const auto link = addLink(fluid, "link", 100.0);
  bool done = false;
  const auto id = fluid.startFlow(FlowSpec{.path = {link},
                                           .bytes = 0,
                                           .queueWeight = 1.0,
                                           .rateCap = 0.0,
                                           .onComplete = [&](const FlowStats& s) {
                                             done = true;
                                             EXPECT_EQ(s.bytes, 0u);
                                             EXPECT_DOUBLE_EQ(s.endTime, s.startTime);
                                           }});
  fluid.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(observer.started, (std::vector<std::uint64_t>{id.value}));
  EXPECT_EQ(observer.completed, (std::vector<std::uint64_t>{id.value}));
}

TEST(Fluid, ZeroByteFlowNotifiesObserverWithoutCallback) {
  FluidSimulator fluid;
  CountingObserver observer;
  fluid.addObserver(&observer);
  const auto link = addLink(fluid, "link", 100.0);
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 0,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = nullptr});
  fluid.run();
  EXPECT_EQ(observer.started.size(), 1u);
  EXPECT_EQ(observer.completed.size(), 1u);
}

/// Cross-checks flowRate(id) against the authoritative per-solve rates.
class RateCheckObserver : public FluidObserver {
 public:
  explicit RateCheckObserver(FluidSimulator& fluid) : fluid_(fluid) {}

  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes,
                     SimTime) override {}
  void onRatesSolved(SimTime, std::span<const FlowId> ids,
                     std::span<const util::MiBps> rates, std::size_t) override {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_DOUBLE_EQ(fluid_.flowRate(ids[i]), rates[i]);
      ++checks;
    }
  }
  void onFlowCompleted(const FlowStats& stats) override {
    EXPECT_DOUBLE_EQ(fluid_.flowRate(stats.id), 0.0);
  }

  std::size_t checks = 0;

 private:
  FluidSimulator& fluid_;
};

TEST(Fluid, FlowRateStaysConsistentAcrossCompletions) {
  // Regression for the id->index map behind flowRate(): completions
  // swap-remove from the flow list, so surviving flows change position and a
  // stale index would report another flow's rate (or crash).
  FluidSimulator fluid;
  RateCheckObserver observer(fluid);
  fluid.addObserver(&observer);
  const auto link = addLink(fluid, "link", 120.0);
  std::vector<FlowId> ids;
  // Staggered sizes: flows finish one at a time, churning the indices.
  for (int i = 1; i <= 6; ++i) {
    ids.push_back(fluid.startFlow(FlowSpec{.path = {link},
                                           .bytes = static_cast<util::Bytes>(i) * 64_MiB,
                                           .queueWeight = 1.0,
                                           .rateCap = 0.0,
                                           .onComplete = nullptr}));
  }
  fluid.run();
  EXPECT_GT(observer.checks, 6u);
  for (const auto id : ids) EXPECT_DOUBLE_EQ(fluid.flowRate(id), 0.0);
}

TEST(FluidCancel, CancelledFlowReleasesCapacityToSurvivor) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  bool cancelledCompleted = false;
  FlowStats survivorStats;
  const auto victim =
      fluid.startFlow(FlowSpec{.path = {link},
                               .bytes = 1_GiB,
                               .queueWeight = 1.0,
                               .rateCap = 0.0,
                               .onComplete = [&](const FlowStats&) { cancelledCompleted = true; }});
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 400_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats& s) { survivorStats = s; }});
  fluid.engine().scheduleAfter(2.0, [&] {
    EXPECT_TRUE(fluid.flowActive(victim));
    // 2s at 50 MiB/s: 100 MiB of the victim's 1024 are gone.
    const auto remaining = fluid.cancelFlow(victim);
    ASSERT_TRUE(remaining.has_value());
    EXPECT_NEAR(static_cast<double>(*remaining) / static_cast<double>(1_MiB), 924.0, 1.0);
    EXPECT_FALSE(fluid.flowActive(victim));
  });
  fluid.run();
  EXPECT_FALSE(cancelledCompleted);  // onComplete must not fire for a cancel
  // Survivor: 100 MiB at 50 MiB/s (shared), then 300 MiB at 100 MiB/s.
  EXPECT_NEAR(survivorStats.endTime, 2.0 + 3.0, 1e-6);
}

TEST(FluidCancel, CancelUnknownOrFinishedFlowReturnsNullopt) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  const auto id = fluid.startFlow(FlowSpec{.path = {link},
                                           .bytes = 100_MiB,
                                           .queueWeight = 1.0,
                                           .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.run();
  EXPECT_FALSE(fluid.flowActive(id));
  EXPECT_FALSE(fluid.cancelFlow(id).has_value());
}

TEST(FluidCancel, ObserverSeesCancellationWithRemainingBytes) {
  struct CancelObserver : FluidObserver {
    std::vector<FlowStats> cancelled;
    void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes,
                       SimTime) override {}
    void onRatesSolved(SimTime, std::span<const FlowId>, std::span<const util::MiBps>,
                       std::size_t) override {}
    void onFlowCompleted(const FlowStats&) override {}
    void onFlowCancelled(const FlowStats& stats) override { cancelled.push_back(stats); }
  };
  FluidSimulator fluid;
  CancelObserver observer;
  fluid.addObserver(&observer);
  const auto link = addLink(fluid, "link", 100.0);
  const auto id = fluid.startFlow(FlowSpec{.path = {link},
                                           .bytes = 500_MiB,
                                           .queueWeight = 1.0,
                                           .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.engine().scheduleAfter(1.0, [&] { fluid.cancelFlow(id); });
  fluid.run();
  ASSERT_EQ(observer.cancelled.size(), 1u);
  EXPECT_EQ(observer.cancelled[0].id.value, id.value);
  EXPECT_NEAR(static_cast<double>(observer.cancelled[0].bytes) / static_cast<double>(1_MiB),
              400.0, 1.0);
}

}  // namespace
}  // namespace beesim::sim

// Tests of the incremental, component-aware rate resolution in the fluid
// core: deferred completion callbacks (reentrancy), component dirtiness,
// randomized differential checks against from-scratch solves, flow classes,
// the stalled-flow deadlock diagnostics, and the zero-allocation steady-state
// guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc_probe.hpp"
#include "harness/run.hpp"
#include "ior/options.hpp"
#include "sim/fluid.hpp"
#include "sim/maxmin.hpp"
#include "sim/trace.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim::sim {
namespace {

using namespace beesim::util::literals;

ResourceIndex addLink(FluidSimulator& fluid, const std::string& name, double capacity) {
  return fluid.addResource(ResourceSpec{name, constantCapacity(capacity)});
}

/// Observer recording the id set of every onRatesSolved call.
class SolveSetObserver : public FluidObserver {
 public:
  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes,
                     SimTime) override {}
  void onRatesSolved(SimTime, std::span<const FlowId> ids, std::span<const util::MiBps>,
                     std::size_t) override {
    std::set<std::uint64_t> set;
    for (const auto id : ids) set.insert(id.value);
    solves.push_back(std::move(set));
  }
  void onFlowCompleted(const FlowStats&) override {}

  std::vector<std::set<std::uint64_t>> solves;
};

TEST(FluidIncremental, CompletionCallbacksMayStartFlowsAtSameInstant) {
  // Regression for the completion-sweep reentrancy hazard: four flows finish
  // at the *same* timestamp, and every callback immediately starts a new
  // flow.  Before callbacks were deferred to a drain list, the callback
  // mutated the flow bookkeeping while the sweep was iterating it.
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  std::size_t firstWave = 0;
  std::size_t secondWave = 0;
  double lastEnd = 0.0;
  for (int i = 0; i < 4; ++i) {
    fluid.startFlow(FlowSpec{.path = {link},
                             .bytes = 100_MiB,
                             .queueWeight = 1.0,
                             .rateCap = 0.0,
                             .onComplete = [&](const FlowStats&) {
                               ++firstWave;
                               fluid.startFlow(FlowSpec{
                                   .path = {link},
                                   .bytes = 50_MiB,
                                   .queueWeight = 1.0,
                                   .rateCap = 0.0,
                                   .onComplete = [&](const FlowStats& s) {
                                     ++secondWave;
                                     lastEnd = std::max(lastEnd, s.endTime);
                                   }});
                             }});
  }
  fluid.run();
  EXPECT_EQ(firstWave, 4u);
  EXPECT_EQ(secondWave, 4u);
  // Wave 1: 4 x 100 MiB at 25 MiB/s each -> t=4.  Wave 2: 4 x 50 MiB at
  // 25 MiB/s -> +2 s.
  EXPECT_NEAR(lastEnd, 6.0, 1e-6);
}

TEST(FluidIncremental, CompletionCallbackMayInvalidateCapacities) {
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  bool done = false;
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 100_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats&) {
                             fluid.invalidateCapacities();
                             done = true;
                           }});
  fluid.run();
  EXPECT_TRUE(done);
}

TEST(FluidIncremental, IdleCapacityChangeSchedulesNoResolve) {
  // With no live flow and no resolve queued, an invalidation would only
  // reset components that the last flow's departure already reset, so it
  // schedules nothing.  A flow started afterwards still sees the changed
  // capacity: its rates equal a fresh simulator's, bit for bit.
  double sharedCap = 100.0;
  const auto build = [&sharedCap](FluidSimulator& fluid) {
    const auto shared = fluid.addResource(ResourceSpec{
        "shared", [&sharedCap](const ResourceLoad& load) {
          return sharedCap / (1.0 + 0.1 * load.queueDepth);
        }});
    return std::vector<ResourceIndex>{addLink(fluid, "left", 30.0),
                                      addLink(fluid, "right", 70.0), shared};
  };
  const auto startTrio = [](FluidSimulator& fluid, const std::vector<ResourceIndex>& r) {
    const std::vector<ResourceIndex> paths[] = {{r[0], r[2]}, {r[1], r[2]}, {r[2]}};
    std::vector<FlowId> ids;
    for (std::size_t i = 0; i < 3; ++i) {
      ids.push_back(fluid.startFlow(FlowSpec{.path = paths[i],
                                             .bytes = (i + 1) * 64_MiB,
                                             .queueWeight = 1.0 + static_cast<double>(i),
                                             .rateCap = 0.0,
                                             .onComplete = nullptr}));
    }
    return ids;
  };

  FluidSimulator fluid;
  const auto resources = build(fluid);
  startTrio(fluid, resources);
  fluid.run();
  ASSERT_EQ(fluid.activeFlows(), 0u);

  sharedCap = 37.5;
  const auto resolves = fluid.resolveCount();
  fluid.invalidateCapacities();
  EXPECT_EQ(fluid.resolveCount(), resolves);
  EXPECT_EQ(fluid.engine().pending(), 0u);
  fluid.engine().runUntil(fluid.now() + 2.0);
  EXPECT_EQ(fluid.resolveCount(), resolves);

  FluidSimulator fresh;
  const auto freshResources = build(fresh);
  const auto ids = startTrio(fluid, resources);
  const auto freshIds = startTrio(fresh, freshResources);
  ASSERT_TRUE(fluid.engine().step());
  ASSERT_TRUE(fresh.engine().step());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_GT(fluid.flowRate(ids[i]), 0.0) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fluid.flowRate(ids[i])),
              std::bit_cast<std::uint64_t>(fresh.flowRate(freshIds[i])))
        << "flow " << i;
  }
  fluid.run();
  EXPECT_EQ(fluid.activeFlows(), 0u);
}

TEST(FluidIncremental, DisjointComponentsAreNotResolved) {
  // Two flows on disjoint links: starting the second must re-solve only its
  // own component; the first flow's (clean) component is left untouched.
  FluidSimulator fluid;
  SolveSetObserver observer;
  fluid.addObserver(&observer);
  const auto linkA = addLink(fluid, "a", 100.0);
  const auto linkB = addLink(fluid, "b", 100.0);
  const auto f1 = fluid.startFlow(FlowSpec{.path = {linkA}, .bytes = 1_GiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.engine().runUntil(0.0);
  FlowId f2;
  fluid.engine().schedule(1.0, [&] {
    f2 = fluid.startFlow(FlowSpec{.path = {linkB}, .bytes = 1_GiB,
                                  .queueWeight = 1.0, .rateCap = 0.0,
                                  .onComplete = nullptr});
  });
  fluid.engine().runUntil(1.0);
  ASSERT_EQ(observer.solves.size(), 2u);
  EXPECT_EQ(observer.solves[0], (std::set<std::uint64_t>{f1.value}));
  EXPECT_EQ(observer.solves[1], (std::set<std::uint64_t>{f2.value}));
  // The clean component kept its rate without being re-solved.
  EXPECT_NEAR(fluid.flowRate(f1), 100.0, 1e-9);
  EXPECT_NEAR(fluid.flowRate(f2), 100.0, 1e-9);
}

TEST(FluidIncremental, SharedResourceMergesComponents) {
  // A flow crossing both links welds the two components into one, and the
  // merged component is re-solved as a whole.
  FluidSimulator fluid;
  SolveSetObserver observer;
  fluid.addObserver(&observer);
  const auto linkA = addLink(fluid, "a", 100.0);
  const auto linkB = addLink(fluid, "b", 100.0);
  const auto f1 = fluid.startFlow(FlowSpec{.path = {linkA}, .bytes = 1_GiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  const auto f2 = fluid.startFlow(FlowSpec{.path = {linkB}, .bytes = 1_GiB,
                                           .queueWeight = 1.0, .rateCap = 0.0,
                                           .onComplete = nullptr});
  fluid.engine().runUntil(0.0);
  FlowId f3;
  fluid.engine().schedule(1.0, [&] {
    f3 = fluid.startFlow(FlowSpec{.path = {linkA, linkB}, .bytes = 1_GiB,
                                  .queueWeight = 1.0, .rateCap = 0.0,
                                  .onComplete = nullptr});
  });
  fluid.engine().runUntil(1.0);
  ASSERT_FALSE(observer.solves.empty());
  EXPECT_EQ(observer.solves.back(),
            (std::set<std::uint64_t>{f1.value, f2.value, f3.value}));
  // Max-min over the merged component: f3 is bottlenecked to 50 on either
  // link, and f1/f2 take the remainder.
  EXPECT_NEAR(fluid.flowRate(f3), 50.0, 1e-9);
  EXPECT_NEAR(fluid.flowRate(f1), 50.0, 1e-9);
  EXPECT_NEAR(fluid.flowRate(f2), 50.0, 1e-9);
}

TEST(FluidIncremental, DeadlockReportsStalledFlowPaths) {
  FluidSimulator fluid;
  const auto nic = addLink(fluid, "client-nic", 100.0);
  const auto dead = addLink(fluid, "dead-ost", 0.0);
  fluid.startFlow(FlowSpec{.path = {nic, dead}, .bytes = 1_MiB, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = nullptr});
  try {
    fluid.run();
    FAIL() << "expected a deadlock ContractError";
  } catch (const util::ContractError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlocked"), std::string::npos) << msg;
    EXPECT_NE(msg.find("flow #"), std::string::npos) << msg;
    EXPECT_NE(msg.find("client-nic"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dead-ost"), std::string::npos) << msg;
  }
}

TEST(FluidIncremental, RandomizedIncrementalMatchesScratchSolve) {
  // Property test: random multi-component scenarios with staggered starts,
  // weights, rate caps and periodic re-solves, run with the differential
  // check enabled -- every resolve re-solves all live flows from scratch and
  // asserts the incremental rates match to 1e-9 relative.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    util::Rng rng(seed);
    FluidSimulator fluid;
    fluid.setSolverCheck(true);
    fluid.setResolveInterval(0.1);

    const std::size_t nGroups = 1 + seed % 3;  // disjoint resource groups
    constexpr std::size_t kGroupSize = 4;
    std::vector<ResourceIndex> resources;
    for (std::size_t g = 0; g < nGroups; ++g) {
      for (std::size_t r = 0; r < kGroupSize; ++r) {
        const double base = rng.uniform(50.0, 500.0);
        // Half the resources wobble over time so clean/dirty transitions and
        // capacity-change detection are exercised, not just membership.
        std::string name = "r";
        name += std::to_string(g);
        name += '_';
        name += std::to_string(r);
        if (r % 2 == 0) {
          resources.push_back(fluid.addResource(ResourceSpec{
              std::move(name), [base](const ResourceLoad& load) {
                return base * (1.0 + 0.2 * std::sin(3.0 * load.time));
              }}));
        } else {
          resources.push_back(addLink(fluid, name, base));
        }
      }
    }

    std::size_t completed = 0;
    constexpr std::size_t kFlows = 24;
    for (std::size_t f = 0; f < kFlows; ++f) {
      const auto group =
          static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(nGroups) - 1));
      FlowSpec spec;
      const auto pathLen = static_cast<std::size_t>(1 + rng.uniformInt(0, 2));
      for (const auto r : rng.sampleWithoutReplacement(kGroupSize, pathLen)) {
        spec.path.push_back(resources[group * kGroupSize + r]);
      }
      spec.bytes = static_cast<util::Bytes>(rng.uniformInt(10, 200)) * 1_MiB;
      spec.queueWeight = rng.uniform(0.5, 4.0);
      spec.rateCap = rng.uniform(0.0, 1.0) < 0.5 ? rng.uniform(20.0, 100.0) : 0.0;
      spec.onComplete = [&completed](const FlowStats&) { ++completed; };
      fluid.engine().schedule(rng.uniform(0.0, 2.0), [&fluid, spec = std::move(spec)]() mutable {
        fluid.startFlow(std::move(spec));
      });
    }
    fluid.run();
    EXPECT_EQ(completed, kFlows) << "seed " << seed;
  }
}

TEST(FluidIncremental, SteadyStateResolveIsAllocationFree) {
  // The acceptance bar for the incremental resolver: once warmed up, the
  // periodic resolve path (advance -> capacity evaluation -> component solve
  // -> wakeup rescheduling) performs zero heap allocations -- and so does
  // flow-class churn: flows leaving and joining existing classes, and
  // classes emptying and being recreated.  Time-varying capacities keep every
  // component dirty, so the solver genuinely runs in the measured window.
  FluidSimulator fluid;
  fluid.setSolverCheck(false);  // the differential check allocates by design
  fluid.setResolveInterval(0.05);
  std::vector<ResourceIndex> links;
  for (int r = 0; r < 6; ++r) {
    links.push_back(fluid.addResource(ResourceSpec{
        "link" + std::to_string(r), [](const ResourceLoad& load) {
          return 200.0 + 50.0 * std::sin(load.time);
        }}));
  }
  // Two disjoint components with four classes each (one per weight), two
  // members per class; sizes large enough that nothing completes inside the
  // measurement window.
  const auto specOf = [&](std::size_t cls) {
    const std::size_t base = cls % 2 == 0 ? 0 : 3;
    return FlowSpec{.path = {links[base], links[base + 1], links[base + 2]},
                    .bytes = 1_TiB,
                    .queueWeight = 1.0 + static_cast<double>(cls / 2),
                    .rateCap = 0.0,
                    .onComplete = nullptr};
  };
  constexpr std::size_t kClasses = 8;
  std::vector<FlowId> members;  // members[2c], members[2c + 1] belong to class c
  for (std::size_t c = 0; c < kClasses; ++c) {
    members.push_back(fluid.startFlow(specOf(c)));
    members.push_back(fluid.startFlow(specOf(c)));
  }
  // Churn every 0.07 s: replace one member of a class, and every third tick
  // empty the class entirely and refill it.  Replacement specs are built up
  // front, in consumption order (a FlowSpec owns its path vector), and moved
  // in.
  const auto classAt = [&](std::size_t tick) { return tick % kClasses; };
  const auto emptiesAt = [](std::size_t tick) { return tick % 3 == 0; };
  std::vector<FlowSpec> spares;
  for (std::size_t t = 0; t < 64; ++t) {
    spares.push_back(specOf(classAt(t)));
    if (emptiesAt(t)) spares.push_back(specOf(classAt(t)));
  }
  std::size_t tick = 0;
  std::size_t used = 0;
  std::function<void()> churn;
  churn = [&] {
    const std::size_t c = classAt(tick);
    const bool empty = emptiesAt(tick);
    if (used + (empty ? 2 : 1) > spares.size()) return;
    ++tick;
    fluid.cancelFlow(members[2 * c]);
    if (empty) fluid.cancelFlow(members[2 * c + 1]);
    members[2 * c] = fluid.startFlow(std::move(spares[used++]));
    if (empty) members[2 * c + 1] = fluid.startFlow(std::move(spares[used++]));
    fluid.engine().scheduleAfter(0.07, [&churn] { churn(); });
  };
  fluid.engine().scheduleAfter(0.07, [&churn] { churn(); });
  fluid.engine().runUntil(1.0);  // warm up scratch arrays, event slots, free lists
  const auto resolvesBefore = fluid.resolveCount();
  const auto iterationsBefore = fluid.solverIterations();
  const auto ticksBefore = tick;
  {
    test::AllocProbe probe;
    fluid.engine().runUntil(2.0);
    EXPECT_EQ(probe.count(), 0u)
        << "steady-state resolves and class churn must not allocate";
  }
  EXPECT_GE(fluid.resolveCount(), resolvesBefore + 15);
  EXPECT_GT(fluid.solverIterations(), iterationsBefore)
      << "the solver must actually run in the measured window";
  EXPECT_GE(tick, ticksBefore + 10) << "classes must actually churn in the window";
  EXPECT_EQ(fluid.activeFlows(), 2 * kClasses);
  EXPECT_EQ(fluid.flowClassCount(), kClasses);
}

TEST(FluidIncremental, ClusterScaleResolveIsAllocationFree) {
  // The cluster-scale bar (DESIGN.md §2.7): 10k flows over 1k wobbling
  // resources in 100 disjoint components, with a ring trace sink attached --
  // and the warmed-up resolve path still performs zero heap allocations.
  FluidSimulator fluid;
  fluid.setSolverCheck(false);  // the differential check allocates by design
  fluid.setResolveInterval(0.05);
  constexpr std::size_t kApps = 100;
  constexpr std::size_t kResPerApp = 10;
  constexpr std::size_t kFlowsPerApp = 100;
  std::vector<ResourceIndex> links;
  for (std::size_t r = 0; r < kApps * kResPerApp; ++r) {
    const double phase = 0.1 * static_cast<double>(r);
    links.push_back(fluid.addResource(ResourceSpec{
        "link" + std::to_string(r), [phase](const ResourceLoad& load) {
          return 500.0 + 2.0 * std::sin(3.0 * load.time + phase);
        }}));
  }
  util::Rng rng(20220714);
  for (std::size_t a = 0; a < kApps; ++a) {
    for (std::size_t f = 0; f < kFlowsPerApp; ++f) {
      FlowSpec spec;
      for (const auto r : rng.sampleWithoutReplacement(kResPerApp, 3)) {
        spec.path.push_back(links[a * kResPerApp + r]);
      }
      spec.bytes = 1_TiB;  // nothing completes inside the window
      spec.queueWeight = rng.uniform(0.5, 4.0);
      fluid.startFlow(std::move(spec));
    }
  }
  RingTraceSink ring(fluid, 1u << 16);
  fluid.engine().runUntil(0.5);  // warm up pools, scratch and observer runs
  const auto resolvesBefore = fluid.resolveCount();
  {
    test::AllocProbe probe;
    fluid.engine().runUntil(1.0);
    EXPECT_EQ(probe.count(), 0u) << "cluster-scale steady-state resolves must not allocate";
  }
  EXPECT_GE(fluid.resolveCount(), resolvesBefore + 9);
  EXPECT_EQ(fluid.activeFlows(), kApps * kFlowsPerApp);
  EXPECT_GT(ring.log().recorded(), 0u);
}

// --- Slack certificate ---------------------------------------------------
//
// A capacity change on a resource that was not binding at its component's
// last walk, and that stays clear of the load the walk placed on it, skips
// the walk; the kept rates must be exactly what the walk would return.  Every
// case runs under the solver check, which re-walks each skipped component and
// demands bit-equal class rates.

/// Three flows of weights 1, 1, 2 through a slack link and a 100 MiB/s
/// bottleneck; returns their ids (sizes 100, 200 and 300 MiB).
std::vector<FlowId> startSlackTrio(FluidSimulator& fluid, ResourceIndex slack,
                                   ResourceIndex bottleneck) {
  std::vector<FlowId> ids;
  const double weights[] = {1.0, 1.0, 2.0};
  for (int i = 0; i < 3; ++i) {
    ids.push_back(fluid.startFlow(FlowSpec{.path = {slack, bottleneck},
                                           .bytes = static_cast<util::Bytes>(i + 1) * 100_MiB,
                                           .queueWeight = weights[i],
                                           .rateCap = 0.0,
                                           .onComplete = nullptr}));
  }
  return ids;
}

/// Records every reported rate with its instant, and every completion
/// instant, as bits.
class RateLog : public FluidObserver {
 public:
  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes, SimTime) override {}
  void onRatesSolved(SimTime at, std::span<const FlowId> ids,
                     std::span<const util::MiBps> rates, std::size_t) override {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      entries.emplace_back(at, ids[i].value, std::bit_cast<std::uint64_t>(rates[i]));
    }
  }
  void onFlowCompleted(const FlowStats& stats) override {
    ends.emplace_back(stats.id.value, std::bit_cast<std::uint64_t>(stats.endTime));
  }

  std::vector<std::tuple<SimTime, std::uint64_t, std::uint64_t>> entries;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ends;
};

TEST(SlackCertificate, SlackDriftSkipsTheWalkAndKeepsEveryBit) {
  // Two runs whose slack link drifts along different curves, never near the
  // 100 MiB/s the bottleneck lets through: each refresh dirties the
  // component, but no walk runs between structural events, and both runs
  // report the same rates and completion instants bit for bit.
  struct Outcome {
    std::size_t refreshResolves;
    std::size_t refreshIterations;
    RateLog log;
  };
  const auto runWith = [](std::function<double(SimTime)> slackCap) {
    FluidSimulator fluid;
    fluid.setSolverCheck(true);
    fluid.setResolveInterval(0.1);
    const auto slack = fluid.addResource(ResourceSpec{
        "slack", [slackCap](const ResourceLoad& load) { return slackCap(load.time); }});
    const auto bottleneck = addLink(fluid, "bottleneck", 100.0);
    Outcome out{0, 0, {}};
    fluid.addObserver(&out.log);
    startSlackTrio(fluid, slack, bottleneck);
    fluid.engine().runUntil(0.05);  // the starts' walk
    const auto resolves = fluid.resolveCount();
    const auto iterations = fluid.solverIterations();
    fluid.engine().runUntil(3.5);  // the first completion is at t = 4
    out.refreshResolves = fluid.resolveCount() - resolves;
    out.refreshIterations = fluid.solverIterations() - iterations;
    fluid.run();
    fluid.removeObserver(&out.log);
    return out;
  };
  const auto a = runWith([](SimTime t) { return 1000.0 + 10.0 * std::sin(t); });
  const auto b = runWith([](SimTime t) { return 2000.0 + 300.0 * std::cos(3.0 * t); });
  for (const auto* run : {&a, &b}) {
    EXPECT_GE(run->refreshResolves, 30u);
    EXPECT_EQ(run->refreshIterations, 0u) << "slack drift must not walk";
    ASSERT_EQ(run->log.ends.size(), 3u);
  }
  EXPECT_EQ(a.log.entries, b.log.entries) << "reported rates must not see slack drift";
  EXPECT_EQ(a.log.ends, b.log.ends) << "completion instants must not see slack drift";
  // Rates 25/25/50 until t = 4, so the first flow ends there exactly.
  EXPECT_NEAR(std::bit_cast<double>(a.log.ends[0].second), 4.0, 1e-9);
}

TEST(SlackCertificate, BindingDriftWalksAndRatesFollow) {
  // The same wobble on the bottleneck itself: every refresh walks, and each
  // reported rate is the weighted share of the capacity at that instant.
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  fluid.setResolveInterval(0.1);
  const auto capAt = [](SimTime t) { return 100.0 + 10.0 * std::sin(t); };
  const auto slack = addLink(fluid, "slack", 1000.0);
  const auto bottleneck = fluid.addResource(ResourceSpec{
      "bottleneck", [capAt](const ResourceLoad& load) { return capAt(load.time); }});
  RateLog log;
  fluid.addObserver(&log);
  const auto ids = startSlackTrio(fluid, slack, bottleneck);
  fluid.engine().runUntil(0.05);
  const auto resolves = fluid.resolveCount();
  const auto iterations = fluid.solverIterations();
  fluid.engine().runUntil(3.0);
  const auto refreshes = fluid.resolveCount() - resolves;
  EXPECT_GE(refreshes, 25u);
  EXPECT_GE(fluid.solverIterations() - iterations, refreshes)
      << "every refresh of a binding capacity must walk";
  std::size_t checked = 0;
  for (const auto& [at, id, bits] : log.entries) {
    const double weight = id == ids[2].value ? 2.0 : 1.0;
    const double expect = capAt(at) * weight / 4.0;
    EXPECT_NEAR(std::bit_cast<double>(bits), expect, 1e-9 * expect)
        << "flow #" << id << " at " << at;
    ++checked;
  }
  EXPECT_GE(checked, 3 * refreshes);
  fluid.removeObserver(&log);
}

TEST(SlackCertificate, DriftIntoTheMarginWalksAndBelowTheLoadBinds) {
  // The slack link carries the bottleneck's 100 MiB/s.  Squeezed to within
  // the certificate's margin of that load it must walk (and stay slack);
  // just outside the margin it skips; squeezed below the load it binds.
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  double slackCap = 1000.0;
  const auto slack = fluid.addResource(
      ResourceSpec{"slack", [&slackCap](const ResourceLoad&) { return slackCap; }});
  const auto bottleneck = addLink(fluid, "bottleneck", 100.0);
  const auto ids = startSlackTrio(fluid, slack, bottleneck);
  const auto squeezeTo = [&](double cap) {
    slackCap = cap;
    fluid.invalidateCapacities();
    const auto iterations = fluid.solverIterations();
    fluid.engine().runUntil(fluid.now());  // the +0 resolve
    return fluid.solverIterations() - iterations;
  };
  fluid.engine().runUntil(0.0);
  const auto rateBits = [&] {
    std::vector<std::uint64_t> bits;
    for (const auto id : ids) bits.push_back(std::bit_cast<std::uint64_t>(fluid.flowRate(id)));
    return bits;
  };
  const auto before = rateBits();
  EXPECT_DOUBLE_EQ(fluid.flowRate(ids[2]), 50.0);

  // Inside the margin: 5e-7 relative above the load, under the 1e-6 margin.
  EXPECT_GT(squeezeTo(100.0 * (1.0 + 5e-7)), 0u) << "a change inside the margin must walk";
  EXPECT_EQ(rateBits(), before) << "inside the margin the link is still slack";
  // Outside it: 2e-6 relative above the load.
  EXPECT_EQ(squeezeTo(100.0 * (1.0 + 2e-6)), 0u) << "a change clear of the margin skips";
  EXPECT_EQ(rateBits(), before);
  // Below the load: the slack link becomes the bottleneck.
  EXPECT_GT(squeezeTo(80.0), 0u);
  EXPECT_NEAR(fluid.flowRate(ids[0]), 20.0, 1e-9);
  EXPECT_NEAR(fluid.flowRate(ids[2]), 40.0, 1e-9);
  // Now binding: even a rise that clears the old load by far must walk.
  EXPECT_GT(squeezeTo(90.0), 0u);
  EXPECT_NEAR(fluid.flowRate(ids[2]), 45.0, 1e-9);
  fluid.run();
  EXPECT_EQ(fluid.activeFlows(), 0u);
}

TEST(SlackCertificate, ScenarioOneRunWalksLessThanOncePerResolve) {
  // Fig. 8's shape: Scenario 1, 16 x 8 N-1, stripe 8.  The periodic client
  // ramp refresh moves only slack client capacities, so most resolves keep
  // their rates without a walk.  Runs under the solver check, which
  // re-walks every skipped component.
  const char* previous = std::getenv("BEESIM_SOLVER_CHECK");
  const std::string saved = previous != nullptr ? previous : "";
  ::setenv("BEESIM_SOLVER_CHECK", "1", 1);
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 16);
  config.fs.defaultStripe.stripeCount = 8;
  config.job = ior::IorJob::onFirstNodes(16, 8);
  config.ior.blockSize = ior::blockSizeForTotal(32_GiB, config.job.ranks());
  const auto record = harness::runOnce(config, 7);
  if (previous != nullptr) {
    ::setenv("BEESIM_SOLVER_CHECK", saved.c_str(), 1);
  } else {
    ::unsetenv("BEESIM_SOLVER_CHECK");
  }
  EXPECT_GT(record.resolves, 50u);
  EXPECT_LT(record.solverIterations, record.resolves);
}

TEST(FluidSimulator, WalkEpochMovesOnlyWhenAResolveWalks) {
  // The hedge lag check re-reads its peer-rate snapshot only when
  // walkEpoch() moves, so the epoch must move on every walk; staying put
  // everywhere else is what lets the snapshot be reused.
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  double slackCap = 1000.0;
  const auto slack = fluid.addResource(
      ResourceSpec{"slack", [&slackCap](const ResourceLoad&) { return slackCap; }});
  const auto bottleneck = addLink(fluid, "bottleneck", 100.0);
  const auto side = addLink(fluid, "side", 100.0);
  auto& engine = fluid.engine();
  auto epoch = fluid.walkEpoch();
  const auto moved = [&] {
    const bool changed = fluid.walkEpoch() != epoch;
    epoch = fluid.walkEpoch();
    return changed;
  };

  const auto trio = startSlackTrio(fluid, slack, bottleneck);
  EXPECT_FALSE(moved()) << "a start before its resolve";
  EXPECT_DOUBLE_EQ(fluid.flowRate(trio[2]), 0.0);
  ASSERT_TRUE(engine.step());  // the +0 resolve walks
  EXPECT_TRUE(moved());
  EXPECT_DOUBLE_EQ(fluid.flowRate(trio[2]), 50.0);

  engine.scheduleAfter(0.5, [] {});
  ASSERT_TRUE(engine.step());
  EXPECT_DOUBLE_EQ(fluid.now(), 0.5);
  EXPECT_FALSE(moved()) << "an engine event that touches no flow";

  // Only the slack link moved: the re-solve keeps every rate without a walk.
  slackCap = 2000.0;
  fluid.invalidateCapacities();
  const auto resolves = fluid.resolveCount();
  ASSERT_TRUE(engine.step());
  EXPECT_EQ(fluid.resolveCount(), resolves + 1);
  EXPECT_FALSE(moved()) << "a re-solve where only slack capacities moved";

  // A flow on its own link walks when it starts; the resolve that retires
  // it, its component's last flow, walks nothing.
  const auto alone = fluid.startFlow(FlowSpec{
      .path = {side}, .bytes = 10_MiB, .queueWeight = 1.0, .rateCap = 0.0, .onComplete = nullptr});
  EXPECT_FALSE(moved());
  ASSERT_TRUE(engine.step());
  EXPECT_TRUE(moved());
  ASSERT_TRUE(engine.step());
  EXPECT_NEAR(fluid.now(), 0.6, 1e-9);
  EXPECT_FALSE(fluid.flowActive(alone));
  EXPECT_FALSE(moved()) << "a resolve that only retires a component's last flow";
  EXPECT_DOUBLE_EQ(fluid.flowRate(trio[2]), 50.0);

  // A cancel changes no live flow's rate until the resolve after it walks.
  ASSERT_TRUE(fluid.cancelFlow(trio[1]).has_value());
  EXPECT_FALSE(moved());
  EXPECT_DOUBLE_EQ(fluid.flowRate(trio[0]), 25.0);
  ASSERT_TRUE(engine.step());
  EXPECT_TRUE(moved());
  EXPECT_DOUBLE_EQ(fluid.flowRate(trio[0]), 100.0 / 3.0);
  fluid.run();
  EXPECT_EQ(fluid.activeFlows(), 0u);
}

// --- Flow classes --------------------------------------------------------

/// (path, weight, cap) as the caller specified it: the flow-class key.
using ClassKey = std::tuple<std::vector<std::uint32_t>, double, double>;

/// Oracle observer: at every rate solve, re-solves all live flows per flow
/// with solveMaxMin (no classes) from capacities it recomputes itself, and
/// checks every flow's rate, the bitwise equality of class members, and the
/// simulator's class count.
class ClassOracle : public FluidObserver {
 public:
  ClassOracle(FluidSimulator& fluid, std::function<double(std::size_t, SimTime)> capacityAt,
              std::size_t resources)
      : fluid_(fluid), capacityAt_(std::move(capacityAt)), resources_(resources) {}

  void onFlowStarted(FlowId, std::span<const ResourceIndex>, util::Bytes, SimTime) override {}
  void onRatesSolved(SimTime at, std::span<const FlowId>, std::span<const util::MiBps>,
                     std::size_t activeFlows) override {
    ASSERT_EQ(live.size(), activeFlows);
    std::vector<SolverResource> res(resources_);
    for (std::size_t r = 0; r < resources_; ++r) res[r].capacity = capacityAt_(r, at);
    std::vector<SolverFlow> flows;
    for (const auto& [value, flow] : live) {
      const auto& key = flow.key;
      flows.push_back(SolverFlow{std::get<0>(key), std::get<2>(key), std::get<1>(key)});
    }
    const auto expect = solveMaxMin(res, flows).rates;
    std::map<ClassKey, double> classRate;
    std::size_t i = 0;
    for (const auto& [id, flow] : live) {
      const auto& key = flow.key;
      const double got = fluid_.flowRate(flow.id);
      EXPECT_NEAR(got, expect[i], 1e-9 * std::max(1.0, expect[i])) << "flow #" << id;
      const auto [it, first] = classRate.emplace(key, got);
      if (!first) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(it->second), std::bit_cast<std::uint64_t>(got))
            << "class members must have bitwise-equal rates (flow #" << id << ")";
      }
      ++i;
    }
    EXPECT_EQ(fluid_.flowClassCount(), classRate.size());
    ++checks;
  }
  void onFlowCompleted(const FlowStats& stats) override { live.erase(stats.id.value); }
  void onFlowCancelled(const FlowStats& stats) override { live.erase(stats.id.value); }

  /// A live flow: the id startFlow returned and its class key.
  struct LiveFlow {
    FlowId id;
    ClassKey key;
  };
  std::map<std::uint64_t, LiveFlow> live;  // by FlowId::value; filled by whoever starts flows
  std::size_t checks = 0;

 private:
  FluidSimulator& fluid_;
  std::function<double(std::size_t, SimTime)> capacityAt_;
  std::size_t resources_;
};

TEST(FlowClasses, RatesMatchPerFlowSolveUnderChurn) {
  // Seeded property test: paths, weights and caps come from small pools, so
  // classes have 1..k members; starts, cancels, completions and capacity
  // wobble interleave.
  const std::vector<std::vector<std::uint32_t>> pathPool{
      {0, 1}, {1, 0}, {0, 2, 3}, {3}, {4, 5}, {2, 4}, {5}};
  const std::vector<double> weightPool{1.0, 2.0, 0.375};
  const std::vector<double> capPool{0.0, 0.0, 40.0};
  constexpr std::size_t kResources = 6;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    util::Rng rng(seed);
    std::vector<double> base(kResources);
    for (auto& b : base) b = rng.uniform(60.0, 400.0);
    const auto capacityAt = [base](std::size_t r, SimTime t) {
      return r % 2 == 0 ? base[r] * (1.0 + 0.2 * std::sin(3.0 * t)) : base[r];
    };
    FluidSimulator fluid;
    fluid.setResolveInterval(0.1);
    std::vector<ResourceIndex> res;
    for (std::size_t r = 0; r < kResources; ++r) {
      res.push_back(fluid.addResource(ResourceSpec{
          std::string("r").append(std::to_string(r)),
          [capacityAt, r](const ResourceLoad& load) { return capacityAt(r, load.time); }}));
    }
    ClassOracle oracle(fluid, capacityAt, kResources);
    fluid.addObserver(&oracle);

    std::size_t started = 0;
    std::size_t cancelled = 0;
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    for (std::size_t f = 0; f < 60; ++f) {
      const auto& path = pathPool[pick(pathPool.size())];
      const double weight = weightPool[pick(weightPool.size())];
      const double cap = capPool[pick(capPool.size())];
      const auto bytes = static_cast<util::Bytes>(rng.uniformInt(5, 120)) * 1_MiB;
      fluid.engine().schedule(rng.uniform(0.0, 3.0), [&, path, weight, cap, bytes] {
        FlowSpec spec{.path = {}, .bytes = bytes, .queueWeight = weight, .rateCap = cap,
                      .onComplete = nullptr};
        for (const auto r : path) spec.path.push_back(res[r]);
        const auto id = fluid.startFlow(std::move(spec));
        oracle.live.emplace(id.value, ClassOracle::LiveFlow{id, ClassKey{path, weight, cap}});
        ++started;
      });
    }
    for (std::size_t c = 0; c < 15; ++c) {
      fluid.engine().schedule(rng.uniform(0.0, 3.0), [&] {
        if (oracle.live.empty()) return;
        auto it = oracle.live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(pick(oracle.live.size())));
        ASSERT_TRUE(fluid.cancelFlow(it->second.id).has_value());
        ++cancelled;
      });
    }
    fluid.run();
    EXPECT_EQ(started, 60u);
    EXPECT_GT(cancelled, 0u) << "seed " << seed;
    EXPECT_GT(oracle.checks, 20u) << "seed " << seed;
    EXPECT_TRUE(oracle.live.empty());
    EXPECT_EQ(fluid.flowClassCount(), 0u) << "the class table must drain with the flows";
  }
}

TEST(FlowClasses, TableEmptiesWhenTheSystemDrains) {
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  const auto a = addLink(fluid, "a", 100.0);
  const auto b = addLink(fluid, "b", 50.0);
  std::vector<FlowId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(fluid.startFlow(FlowSpec{.path = {a, b},
                                           .bytes = static_cast<util::Bytes>(i + 1) * 10_MiB,
                                           .queueWeight = 1.0 + i % 2,
                                           .rateCap = 0.0,
                                           .onComplete = nullptr}));
  }
  EXPECT_EQ(fluid.flowClassCount(), 2u);
  fluid.engine().scheduleAfter(0.1, [&] { fluid.cancelFlow(ids[5]); });
  fluid.run();
  EXPECT_EQ(fluid.activeFlows(), 0u);
  EXPECT_EQ(fluid.flowClassCount(), 0u);
}

TEST(FlowClasses, DifferingWeightCapOrPathOrderNeverShare) {
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  const auto a = addLink(fluid, "a", 100.0);
  const auto b = addLink(fluid, "b", 300.0);
  const auto start = [&](std::vector<ResourceIndex> path, double weight, double cap) {
    return fluid.startFlow(FlowSpec{.path = std::move(path), .bytes = 1_GiB,
                                    .queueWeight = weight, .rateCap = cap,
                                    .onComplete = nullptr});
  };
  const auto f1 = start({a, b}, 1.0, 0.0);
  const auto f2 = start({a, b}, 1.0, 0.0);
  EXPECT_EQ(fluid.flowClassCount(), 1u) << "identical flows share a class";
  start({a, b}, 2.0, 0.0);
  EXPECT_EQ(fluid.flowClassCount(), 2u) << "weight is part of the key";
  start({a, b}, std::nextafter(1.0, 2.0), 0.0);
  EXPECT_EQ(fluid.flowClassCount(), 3u) << "weights compare bitwise";
  start({a, b}, 1.0, 10.0);
  EXPECT_EQ(fluid.flowClassCount(), 4u) << "the rate cap is part of the key";
  const auto reversed = start({b, a}, 1.0, 0.0);
  EXPECT_EQ(fluid.flowClassCount(), 5u) << "path order is part of the key";
  start({a}, 1.0, 0.0);
  EXPECT_EQ(fluid.flowClassCount(), 6u) << "a path prefix is a different path";
  fluid.engine().runUntil(0.0);
  // Link a (100) bottlenecks all seven flows: every flow first rises to the
  // capped one's 10, then the six unit-ish weights share the remaining 20.
  EXPECT_EQ(fluid.flowRate(f1), fluid.flowRate(f2));
  EXPECT_NEAR(fluid.flowRate(f1), 90.0 / 7.0, 1e-6);
  EXPECT_NEAR(fluid.flowRate(reversed), 90.0 / 7.0, 1e-6);
  fluid.run();
  EXPECT_EQ(fluid.flowClassCount(), 0u);
}

TEST(FlowClasses, UnequalMembersCompleteInSizeOrderAtAnalyticTimes) {
  // One class, four members of 40/30/20/10 MiB on a 100 MiB/s link, started
  // largest first: each completion raises the survivors' equal share, so the
  // members finish smallest first at t = 0.4, 0.7, 0.9, 1.0.
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  const auto link = addLink(fluid, "link", 100.0);
  std::vector<std::pair<std::uint64_t, double>> done;
  std::vector<FlowId> ids;
  for (const util::Bytes mib : {40u, 30u, 20u, 10u}) {
    ids.push_back(fluid.startFlow(FlowSpec{
        .path = {link}, .bytes = mib * 1_MiB, .queueWeight = 1.0, .rateCap = 0.0,
        .onComplete = [&done](const FlowStats& s) { done.emplace_back(s.id.value, s.endTime); }}));
  }
  EXPECT_EQ(fluid.flowClassCount(), 1u);
  fluid.run();
  ASSERT_EQ(done.size(), 4u);
  const double expectEnd[] = {0.4, 0.7, 0.9, 1.0};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(done[i].first, ids[3 - i].value) << "completion " << i;
    EXPECT_NEAR(done[i].second, expectEnd[i], 1e-12) << "completion " << i;
  }
}

TEST(FlowClasses, CancelMidClassReturnsExactRemainingBytes) {
  // Two 100 MiB members share 96 MiB/s (48 each); at t = 0.25 the class has
  // served 12 MiB and a 64 MiB member joins (target 76).  Three members get
  // 32 each, so at t = 0.75 the class has served 28: the late member has
  // 48 MiB left, an original one 72.  A member cancelled at the instant it
  // joins gets every byte back, odd sizes included.
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  const auto link = addLink(fluid, "link", 96.0);
  const auto spec = [&](util::Bytes bytes) {
    return FlowSpec{.path = {link}, .bytes = bytes, .queueWeight = 1.0, .rateCap = 0.0,
                    .onComplete = nullptr};
  };
  const auto a = fluid.startFlow(spec(100_MiB));
  fluid.startFlow(spec(100_MiB));
  fluid.engine().runUntil(0.25);
  const auto late = fluid.startFlow(spec(64_MiB));
  fluid.engine().runUntil(0.75);
  EXPECT_EQ(fluid.flowRate(late), 32.0);
  EXPECT_EQ(fluid.cancelFlow(late), std::optional<util::Bytes>(48_MiB));
  EXPECT_EQ(fluid.cancelFlow(a), std::optional<util::Bytes>(72_MiB));
  const util::Bytes odd = 5_MiB + 3;
  const auto instant = fluid.startFlow(spec(odd));
  EXPECT_EQ(fluid.cancelFlow(instant), std::optional<util::Bytes>(odd));
  EXPECT_EQ(fluid.cancelFlow(instant), std::nullopt);
  fluid.run();
  EXPECT_EQ(fluid.flowClassCount(), 0u);
}

TEST(FlowClasses, MemberJoiningAfterTheLastSolveHasNoRateYet) {
  // The class already has a rate when a second member joins, but the new
  // member reads 0 until the class is re-solved with it (the incumbent keeps
  // its rate until then).
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  const auto link = addLink(fluid, "link", 100.0);
  const auto spec = [&] {
    return FlowSpec{.path = {link}, .bytes = 1_GiB, .queueWeight = 1.0, .rateCap = 0.0,
                    .onComplete = nullptr};
  };
  const auto first = fluid.startFlow(spec());
  fluid.engine().runUntil(0.5);
  EXPECT_EQ(fluid.flowRate(first), 100.0);
  const auto second = fluid.startFlow(spec());
  EXPECT_EQ(fluid.flowClassCount(), 1u);
  EXPECT_EQ(fluid.flowRate(second), 0.0);
  EXPECT_EQ(fluid.flowRate(first), 100.0);
  fluid.engine().runUntil(0.5);  // the resolve queued by the start
  EXPECT_EQ(fluid.flowRate(second), 50.0);
  EXPECT_EQ(fluid.flowRate(first), 50.0);
  fluid.run();
}

TEST(FlowClasses, ReusedClassSlotRestartsServed) {
  // A 2^30 MiB flow drains a class at 2^30 MiB/s; its completion callback
  // starts a 1 MiB flow of another class through a 1 MiB/s link, which
  // reuses the freed class slot.  The periodic 0.1 s resolves bank inexact
  // increments: on a served counter left at 2^30 (ULP 2.4e-7 MiB) they would
  // move the completion by ~1e-7 s, on a restarted one they stay exact.
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  fluid.setResolveInterval(0.1);
  const auto fast = addLink(fluid, "fast", 1073741824.0);
  const auto slow = addLink(fluid, "slow", 1.0);
  std::optional<FlowStats> small;
  fluid.startFlow(FlowSpec{.path = {fast}, .bytes = util::Bytes{1} << 50, .queueWeight = 1.0,
                           .rateCap = 0.0, .onComplete = [&](const FlowStats&) {
                             EXPECT_EQ(fluid.flowClassCount(), 0u);
                             fluid.startFlow(FlowSpec{
                                 .path = {fast, slow}, .bytes = 1_MiB, .queueWeight = 1.0,
                                 .rateCap = 0.0,
                                 .onComplete = [&](const FlowStats& s) { small = s; }});
                           }});
  fluid.run();
  ASSERT_TRUE(small.has_value());
  EXPECT_NEAR(small->endTime - small->startTime, 1.0, 1e-12);
}

TEST(FlowClasses, SimultaneousCrossClassBatchDrainsInAscendingId) {
  // Flows #2 (class B) and #3 (class A, listed first in the component) both
  // have 20 MiB at the same rate, so they finish in one resolve; callbacks
  // run in ascending flow id, not in class-list order.
  FluidSimulator fluid;
  fluid.setSolverCheck(true);
  const auto link = addLink(fluid, "link", 100.0);
  const auto wide = addLink(fluid, "wide", 1000.0);
  std::vector<std::uint64_t> order;
  std::vector<double> ends;
  const auto start = [&](std::vector<ResourceIndex> path, util::Bytes bytes) {
    return fluid.startFlow(FlowSpec{.path = std::move(path), .bytes = bytes,
                                    .queueWeight = 1.0, .rateCap = 0.0,
                                    .onComplete = [&](const FlowStats& s) {
                                      order.push_back(s.id.value);
                                      ends.push_back(s.endTime);
                                    }});
  };
  EXPECT_EQ(start({link}, 30_MiB).value, 1u);
  EXPECT_EQ(start({link, wide}, 20_MiB).value, 2u);
  EXPECT_EQ(start({link}, 20_MiB).value, 3u);
  EXPECT_EQ(fluid.flowClassCount(), 2u);
  fluid.run();
  ASSERT_EQ(order, (std::vector<std::uint64_t>{2, 3, 1}));
  EXPECT_EQ(ends[0], ends[1]);
  EXPECT_NEAR(ends[0], 0.6, 1e-12);
}

TEST(FlowClasses, LongLivedClassKeepsChainedCompletionTimesExact) {
  // A class kept alive for 10^4 chained 1 MiB members (each completion
  // starts the next) beside one long member: every member gets 50 of the
  // 100 MiB/s, so member k ends at 0.02 k even though the class's served
  // counter has grown to 10^4 MiB by the end.
  FluidSimulator fluid;
  const auto link = addLink(fluid, "link", 100.0);
  constexpr std::size_t kChain = 10000;
  const auto anchor = fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_TiB,
                                               .queueWeight = 1.0, .rateCap = 0.0,
                                               .onComplete = nullptr});
  std::size_t finished = 0;
  double worst = 0.0;
  std::function<void(const FlowStats&)> next;
  const auto launch = [&] {
    fluid.startFlow(FlowSpec{.path = {link}, .bytes = 1_MiB, .queueWeight = 1.0,
                             .rateCap = 0.0, .onComplete = next});
  };
  next = [&](const FlowStats& s) {
    ++finished;
    const double expect = 0.02 * static_cast<double>(finished);
    worst = std::max(worst, std::abs(s.endTime - expect) / expect);
    if (finished < kChain) {
      launch();
    } else {
      fluid.cancelFlow(anchor);
    }
  };
  launch();
  fluid.run();
  EXPECT_EQ(finished, kChain);
  EXPECT_LE(worst, 1e-9);
  EXPECT_EQ(fluid.flowClassCount(), 0u);
}

TEST(SolverWorkspaceTest, SubsetSolveMatchesWholeProblem) {
  // Solving two disjoint halves of a problem through one reused workspace
  // must reproduce the reference whole-problem solution exactly (max-min
  // decomposes over connected components).
  util::Rng rng(7);
  constexpr std::size_t kRes = 8;
  constexpr std::size_t kFlows = 32;
  std::vector<SolverResource> resources(kRes);
  for (auto& r : resources) r.capacity = rng.uniform(50.0, 400.0);
  std::vector<SolverFlow> flows(kFlows);
  for (std::size_t f = 0; f < kFlows; ++f) {
    const std::size_t half = f % 2;  // even flows -> resources 0..3, odd -> 4..7
    for (const auto r : rng.sampleWithoutReplacement(kRes / 2, 2)) {
      flows[f].resources.push_back(static_cast<std::uint32_t>(half * kRes / 2 + r));
    }
    flows[f].weight = rng.uniform(0.5, 4.0);
    if (f % 3 == 0) flows[f].rateCap = rng.uniform(10.0, 60.0);
  }
  const auto reference = solveMaxMin(resources, flows);

  // Flatten to the CSR view.
  std::vector<double> capacity(kRes);
  for (std::size_t r = 0; r < kRes; ++r) capacity[r] = resources[r].capacity;
  std::vector<std::uint32_t> adjacency;
  std::vector<std::uint32_t> adjOffset(kFlows);
  std::vector<std::uint32_t> adjLen(kFlows);
  std::vector<double> weight(kFlows);
  std::vector<double> rateCap(kFlows);
  for (std::size_t f = 0; f < kFlows; ++f) {
    adjOffset[f] = static_cast<std::uint32_t>(adjacency.size());
    adjLen[f] = static_cast<std::uint32_t>(flows[f].resources.size());
    adjacency.insert(adjacency.end(), flows[f].resources.begin(),
                     flows[f].resources.end());
    weight[f] = flows[f].weight;
    rateCap[f] = flows[f].rateCap;
  }
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};

  SolverWorkspace workspace;
  std::vector<double> rates(kFlows, -1.0);
  std::vector<std::uint32_t> evens;
  std::vector<std::uint32_t> odds;
  for (std::uint32_t f = 0; f < kFlows; ++f) (f % 2 == 0 ? evens : odds).push_back(f);
  workspace.solveSubset(view, evens, rates);
  workspace.solveSubset(view, odds, rates);
  for (std::size_t f = 0; f < kFlows; ++f) {
    EXPECT_NEAR(rates[f], reference.rates[f],
                1e-9 * std::max(1.0, reference.rates[f]))
        << "flow " << f;
  }
}

TEST(SolverWorkspaceTest, IgnoresSlotsOutsideTheSubset) {
  // Stale (free) slots may carry garbage adjacency; only the named subset is
  // read.  Capacity 100, two live slots out of four.
  const std::vector<double> capacity{100.0};
  const std::vector<std::uint32_t> adjacency{0, 0, 0, 0};
  const std::vector<std::uint32_t> adjOffset{0, 1, 2, 3};
  const std::vector<std::uint32_t> adjLen{1, 0, 1, 0};  // slots 1/3 are free
  const std::vector<double> weight{1.0, 0.0, 3.0, -1.0};
  const std::vector<double> rateCap{0.0, 0.0, 0.0, 0.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  SolverWorkspace workspace;
  std::vector<double> rates(4, -7.0);
  const std::vector<std::uint32_t> subset{0, 2};
  workspace.solveSubset(view, subset, rates);
  EXPECT_NEAR(rates[0], 25.0, 1e-9);
  EXPECT_NEAR(rates[2], 75.0, 1e-9);
  EXPECT_DOUBLE_EQ(rates[1], -7.0);  // untouched
  EXPECT_DOUBLE_EQ(rates[3], -7.0);
}

TEST(SolverWorkspaceTest, ExposesPostWalkResidualsAndSaturation) {
  // One flow through a 100 and a 300 MiB/s resource: the first saturates
  // (residual clamped to 0), the second keeps 200 of slack.  A resource no
  // filling flow crosses keeps its capacity as the residual.
  const std::vector<double> capacity{100.0, 300.0, 0.0, 50.0};
  const std::vector<std::uint32_t> adjacency{0, 1, 2, 3};
  const std::vector<std::uint32_t> adjOffset{0, 2};
  const std::vector<std::uint32_t> adjLen{2, 2};  // slot 1 is dead (zero capacity)
  const std::vector<double> weight{1.0, 1.0};
  const std::vector<double> rateCap{0.0, 0.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  SolverWorkspace workspace;
  std::vector<double> rates(2, -1.0);
  const std::vector<std::uint32_t> subset{0, 1};
  workspace.solveSubset(view, subset, rates);
  EXPECT_EQ(std::vector<std::uint32_t>(workspace.touchedResources().begin(),
                                       workspace.touchedResources().end()),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_TRUE(workspace.saturated(0));
  EXPECT_EQ(workspace.residual(0), 0.0);
  EXPECT_FALSE(workspace.saturated(1));
  EXPECT_DOUBLE_EQ(workspace.residual(1), 200.0);
  EXPECT_FALSE(workspace.saturated(3));
  EXPECT_EQ(workspace.residual(3), 50.0);
  EXPECT_EQ(rates[1], 0.0);
}

}  // namespace
}  // namespace beesim::sim

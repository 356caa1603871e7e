// Property tests for the ε-bounded incremental resolution (DESIGN.md §2.7):
//
//   * ε = 0 is the exact path: it never defers a resolve;
//   * ε > 0 never lets a flow's simulated rate deviate from the exact
//     max-min solution by more than ε MiB/s;
//   * capacity drift accumulates across skipped resolves, so slow trends
//     cannot hide under the bound forever;
//   * structural events (start/complete/merge, capacity touching 0) are
//     never deferred no matter how large ε is;
//   * deferred components keep their completion horizons valid (the rates
//     the simulation integrates are the ones the horizons were computed
//     from), so ε only perturbs *when* rates refresh, never bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/fluid.hpp"
#include "util/units.hpp"

namespace beesim::sim {
namespace {

using namespace beesim::util::literals;

TEST(FluidScale, EpsilonBoundsSimulatedRateDeviation) {
  // Lockstep an exact simulator against an ε-bounded one on a wobbling
  // scenario and sample both rate vectors: the ε run must defer real work,
  // yet no sampled rate may deviate from the exact solution by more than ε.
  constexpr double kEpsilon = 10.0;
  FluidSimulator exact;
  FluidSimulator bounded;
  bounded.setSolverEpsilon(kEpsilon);

  std::vector<FlowId> exactIds;
  std::vector<FlowId> boundedIds;
  for (FluidSimulator* fluid : {&exact, &bounded}) {
    fluid->setResolveInterval(0.02);
    std::vector<ResourceIndex> links;
    for (int r = 0; r < 6; ++r) {
      const double phase = 0.5 * r;
      links.push_back(fluid->addResource(ResourceSpec{
          "link" + std::to_string(r), [phase](const ResourceLoad& load) {
            // +-3 MiB/s wobble at ~300: far inside ε per tick, so deferral
            // genuinely engages; drift still forces periodic exact solves.
            return 300.0 + 3.0 * std::sin(2.0 * load.time + phase);
          }}));
    }
    auto& ids = fluid == &exact ? exactIds : boundedIds;
    for (int f = 0; f < 9; ++f) {
      ids.push_back(fluid->startFlow(FlowSpec{
          .path = {links[f % 6], links[(f + 2) % 6]},
          .bytes = 1_TiB,
          .queueWeight = 1.0 + 0.25 * f,
          .rateCap = 0.0,
          .onComplete = nullptr}));
    }
  }

  for (double t = 0.1; t <= 3.0; t += 0.1) {
    exact.engine().runUntil(t);
    bounded.engine().runUntil(t);
    for (std::size_t f = 0; f < exactIds.size(); ++f) {
      EXPECT_LE(std::abs(bounded.flowRate(boundedIds[f]) -
                         exact.flowRate(exactIds[f])),
                kEpsilon + 1e-9)
          << "flow " << f << " at t=" << t;
    }
  }
  EXPECT_GT(bounded.deferredResolves(), 0u)
      << "the wobble must be small enough that the ε bound defers solves";
  EXPECT_EQ(exact.deferredResolves(), 0u);
}

TEST(FluidScale, CapacityDriftAccumulatesAcrossSkippedResolves) {
  // A slow monotonic decline (0.5 MiB/s per tick against ε = 2) can be
  // deferred for at most 4 ticks before accumulated drift crosses ε and
  // forces an exact solve: the flow's rate must track the decline with lag
  // at most ε and the run must show *both* deferred and exact resolves.
  FluidSimulator fluid;
  fluid.setSolverEpsilon(2.0);
  fluid.setResolveInterval(0.1);
  const auto link = fluid.addResource(ResourceSpec{
      "draining", [](const ResourceLoad& load) { return 200.0 - 5.0 * load.time; }});
  const auto flow = fluid.startFlow(FlowSpec{.path = {link},
                                             .bytes = 1_TiB,
                                             .queueWeight = 1.0,
                                             .rateCap = 0.0,
                                             .onComplete = nullptr});
  fluid.engine().runUntil(10.0);
  // Exact rate now 150; the last exact solve was at most ε of drift ago.
  EXPECT_GE(fluid.flowRate(flow), 150.0 - 1e-9);
  EXPECT_LE(fluid.flowRate(flow), 152.0 + 1e-9);
  EXPECT_GT(fluid.deferredResolves(), 20u) << "most ticks must be deferred";
  EXPECT_LT(fluid.deferredResolves(), 100u)
      << "drift accumulation must periodically force exact solves";
}

TEST(FluidScale, StructuralEventsAreNeverDeferred) {
  // With ε far beyond any rate in the system, starts and completions must
  // still re-solve their component immediately and exactly.
  FluidSimulator fluid;
  fluid.setSolverEpsilon(1e6);
  fluid.setResolveInterval(0.05);
  const auto link =
      fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  double bEnd = 0.0;
  const auto a = fluid.startFlow(FlowSpec{.path = {link},
                                          .bytes = 1_TiB,
                                          .queueWeight = 1.0,
                                          .rateCap = 0.0,
                                          .onComplete = nullptr});
  fluid.engine().runUntil(1.0);
  EXPECT_DOUBLE_EQ(fluid.flowRate(a), 100.0);
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 50_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats& s) { bEnd = s.endTime; }});
  fluid.engine().runUntil(1.0);  // drain the same-instant start resolve
  EXPECT_DOUBLE_EQ(fluid.flowRate(a), 50.0) << "the start must re-solve exactly";
  fluid.engine().runUntil(3.0);
  // b: 50 MiB at 50 MiB/s from t=1 -> completes at t=2, returning a to 100.
  EXPECT_DOUBLE_EQ(bEnd, 2.0);
  EXPECT_DOUBLE_EQ(fluid.flowRate(a), 100.0)
      << "the completion must re-solve exactly";
}

TEST(FluidScale, ZeroCapacityTransitionsAreStructural) {
  // Capacity collapsing to 0 (an outage) changes *feasibility*, not just
  // rates, so it must never hide under the ε bound; same for the recovery.
  FluidSimulator fluid;
  fluid.setSolverEpsilon(1e6);
  fluid.setResolveInterval(0.1);
  const auto link = fluid.addResource(ResourceSpec{
      "flaky", [](const ResourceLoad& load) {
        return load.time >= 1.0 && load.time < 2.0 ? 0.0 : 80.0;
      }});
  const auto flow = fluid.startFlow(FlowSpec{.path = {link},
                                             .bytes = 1_TiB,
                                             .queueWeight = 1.0,
                                             .rateCap = 0.0,
                                             .onComplete = nullptr});
  fluid.engine().runUntil(1.5);
  EXPECT_DOUBLE_EQ(fluid.flowRate(flow), 0.0) << "the outage must not be deferred";
  fluid.engine().runUntil(2.5);
  EXPECT_DOUBLE_EQ(fluid.flowRate(flow), 80.0) << "the recovery must not be deferred";
}

TEST(FluidScale, DeferredComponentsKeepCompletionHorizonsValid) {
  // While a component defers, the simulation keeps integrating the rates the
  // completion horizons were computed from -- so a flow solved once at t=0
  // and deferred ever after completes at exactly bytes / rate(t=0).
  FluidSimulator fluid;
  fluid.setSolverEpsilon(25.0);
  fluid.setResolveInterval(0.05);
  const auto link = fluid.addResource(ResourceSpec{
      "wobbly", [](const ResourceLoad& load) {
        // capacity(0) = 100 exactly; wobble stays inside ε forever.
        return 100.0 + 0.5 * std::sin(7.0 * load.time);
      }});
  double end = 0.0;
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 200_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats& s) { end = s.endTime; }});
  fluid.run();
  EXPECT_DOUBLE_EQ(end, 2.0) << "200 MiB at the t=0 rate of 100 MiB/s";
  EXPECT_GT(fluid.deferredResolves(), 10u);
}

}  // namespace
}  // namespace beesim::sim

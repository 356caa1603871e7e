// Structural events on the exact fluid core (DESIGN.md §2.2): a flow start,
// a completion, and a capacity hitting or leaving 0 each change the flow
// population or its feasibility, so the slack certificate must never keep
// the old rates across them.  Each one must walk its component (walkEpoch()
// moves) and leave exact max-min rates behind.
#include <gtest/gtest.h>

#include "sim/fluid.hpp"
#include "util/units.hpp"

namespace beesim::sim {
namespace {

using namespace beesim::util::literals;

TEST(FluidScale, StructuralEventsAreNeverDeferred) {
  // Starts and completions re-solve their component at once and exactly;
  // the periodic ticks in between see no capacity change and walk nothing.
  FluidSimulator fluid;
  fluid.setResolveInterval(0.05);
  const auto link =
      fluid.addResource(ResourceSpec{"link", constantCapacity(100.0)});
  double bEnd = 0.0;
  auto epoch = fluid.walkEpoch();
  const auto a = fluid.startFlow(FlowSpec{.path = {link},
                                          .bytes = 1_TiB,
                                          .queueWeight = 1.0,
                                          .rateCap = 0.0,
                                          .onComplete = nullptr});
  fluid.engine().runUntil(1.0);
  EXPECT_DOUBLE_EQ(fluid.flowRate(a), 100.0);
  EXPECT_EQ(fluid.walkEpoch(), epoch + 1) << "one walk: the start";
  epoch = fluid.walkEpoch();
  fluid.startFlow(FlowSpec{.path = {link},
                           .bytes = 50_MiB,
                           .queueWeight = 1.0,
                           .rateCap = 0.0,
                           .onComplete = [&](const FlowStats& s) { bEnd = s.endTime; }});
  fluid.engine().runUntil(1.0);  // drain the same-instant start resolve
  EXPECT_DOUBLE_EQ(fluid.flowRate(a), 50.0) << "the start must re-solve exactly";
  EXPECT_EQ(fluid.walkEpoch(), epoch + 1) << "the start must walk";
  epoch = fluid.walkEpoch();
  fluid.engine().runUntil(3.0);
  // b: 50 MiB at 50 MiB/s from t=1 -> completes at t=2, returning a to 100.
  EXPECT_DOUBLE_EQ(bEnd, 2.0);
  EXPECT_DOUBLE_EQ(fluid.flowRate(a), 100.0)
      << "the completion must re-solve exactly";
  EXPECT_EQ(fluid.walkEpoch(), epoch + 1) << "the completion must walk";
}

TEST(FluidScale, ZeroCapacityTransitionsAreStructural) {
  // Capacity collapsing to 0 (an outage) changes *feasibility*, not just
  // rates, and so does the recovery.  The recovery is the case the slack
  // test alone would miss: the walk during the outage leaves the dead link
  // with zero load, so 0 -> 80 looks like a slack change.
  FluidSimulator fluid;
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
  fluid.engine().runUntil(0.5);
  EXPECT_DOUBLE_EQ(fluid.flowRate(flow), 80.0);
  auto epoch = fluid.walkEpoch();
  fluid.engine().runUntil(1.5);
  EXPECT_DOUBLE_EQ(fluid.flowRate(flow), 0.0) << "the outage must walk";
  EXPECT_EQ(fluid.walkEpoch(), epoch + 1) << "one walk: the outage";
  epoch = fluid.walkEpoch();
  fluid.engine().runUntil(2.5);
  EXPECT_DOUBLE_EQ(fluid.flowRate(flow), 80.0) << "the recovery must walk";
  EXPECT_EQ(fluid.walkEpoch(), epoch + 1) << "one walk: the recovery";
}

}  // namespace
}  // namespace beesim::sim

#include "sim/maxmin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace beesim::sim {
namespace {

SolverFlow flow(std::vector<std::uint32_t> resources, double cap = 0.0) {
  SolverFlow f;
  f.resources = std::move(resources);
  f.rateCap = cap;
  return f;
}

TEST(MaxMin, SingleFlowGetsFullCapacity) {
  const std::vector<SolverResource> res{{100.0}};
  const std::vector<SolverFlow> flows{flow({0})};
  const auto result = solveMaxMin(res, flows);
  ASSERT_EQ(result.rates.size(), 1u);
  EXPECT_NEAR(result.rates[0], 100.0, 1e-9);
}

TEST(MaxMin, EqualFlowsShareEqually) {
  const std::vector<SolverResource> res{{90.0}};
  const std::vector<SolverFlow> flows{flow({0}), flow({0}), flow({0})};
  const auto result = solveMaxMin(res, flows);
  for (const auto rate : result.rates) EXPECT_NEAR(rate, 30.0, 1e-9);
}

TEST(MaxMin, BottleneckedFlowReleasesCapacityToOthers) {
  // Flow 0 crosses a narrow private link; flows 1-2 share the wide link with
  // it.  Classic max-min: flow 0 gets 10, the rest split the remainder.
  const std::vector<SolverResource> res{{10.0}, {100.0}};
  const std::vector<SolverFlow> flows{flow({0, 1}), flow({1}), flow({1})};
  const auto result = solveMaxMin(res, flows);
  EXPECT_NEAR(result.rates[0], 10.0, 1e-9);
  EXPECT_NEAR(result.rates[1], 45.0, 1e-9);
  EXPECT_NEAR(result.rates[2], 45.0, 1e-9);
}

TEST(MaxMin, WeightsScaleTheFairShare) {
  // Weighted max-min: a weight-3 flow gets 3x the rate of a weight-1 flow
  // on a shared bottleneck.
  const std::vector<SolverResource> res{{80.0}};
  std::vector<SolverFlow> flows{flow({0}), flow({0})};
  flows[0].weight = 3.0;
  flows[1].weight = 1.0;
  const auto result = solveMaxMin(res, flows);
  EXPECT_NEAR(result.rates[0], 60.0, 1e-9);
  EXPECT_NEAR(result.rates[1], 20.0, 1e-9);
}

TEST(MaxMin, WeightedBottleneckReleasesCapacity) {
  // The heavy flow is capped on its private link; the remainder is split by
  // weight among the others.
  const std::vector<SolverResource> res{{10.0}, {100.0}};
  std::vector<SolverFlow> flows{flow({0, 1}), flow({1}), flow({1})};
  flows[0].weight = 10.0;
  flows[1].weight = 2.0;
  flows[2].weight = 1.0;
  const auto result = solveMaxMin(res, flows);
  EXPECT_NEAR(result.rates[0], 10.0, 1e-9);
  EXPECT_NEAR(result.rates[1], 60.0, 1e-9);
  EXPECT_NEAR(result.rates[2], 30.0, 1e-9);
}

TEST(MaxMin, NonPositiveWeightThrows) {
  const std::vector<SolverResource> res{{10.0}};
  std::vector<SolverFlow> flows{flow({0})};
  flows[0].weight = 0.0;
  EXPECT_THROW(solveMaxMin(res, flows), util::ContractError);
}

TEST(MaxMin, RateCapFreezesFlow) {
  const std::vector<SolverResource> res{{100.0}};
  const std::vector<SolverFlow> flows{flow({0}, 20.0), flow({0})};
  const auto result = solveMaxMin(res, flows);
  EXPECT_NEAR(result.rates[0], 20.0, 1e-9);
  EXPECT_NEAR(result.rates[1], 80.0, 1e-9);
}

TEST(MaxMin, ZeroCapacityResourceKillsItsFlows) {
  const std::vector<SolverResource> res{{0.0}, {100.0}};
  const std::vector<SolverFlow> flows{flow({0, 1}), flow({1})};
  const auto result = solveMaxMin(res, flows);
  EXPECT_DOUBLE_EQ(result.rates[0], 0.0);
  EXPECT_NEAR(result.rates[1], 100.0, 1e-9);
}

TEST(MaxMin, EmptyFlowSetIsFine) {
  const std::vector<SolverResource> res{{10.0}};
  const auto result = solveMaxMin(res, std::vector<SolverFlow>{});
  EXPECT_TRUE(result.rates.empty());
}

TEST(MaxMin, FlowWithoutResourcesThrows) {
  const std::vector<SolverResource> res{{10.0}};
  const std::vector<SolverFlow> flows{flow({})};
  EXPECT_THROW(solveMaxMin(res, flows), util::ContractError);
}

TEST(MaxMin, UnknownResourceIndexThrows) {
  const std::vector<SolverResource> res{{10.0}};
  const std::vector<SolverFlow> flows{flow({3})};
  EXPECT_THROW(solveMaxMin(res, flows), util::ContractError);
}

TEST(MaxMin, ScenarioOneShape) {
  // The paper's Scenario-1 core effect: two server links of capacity B; an
  // allocation (1,3) pushes 3/4 of the flows through one link.  8 clients x
  // 4 targets = 32 flows; target 0 on server A, targets 1-3 on server B.
  constexpr double kLinkB = 1100.0;
  const std::vector<SolverResource> res{{kLinkB}, {kLinkB}};
  std::vector<SolverFlow> flows;
  for (int client = 0; client < 8; ++client) {
    for (int target = 0; target < 4; ++target) {
      flows.push_back(flow({target == 0 ? 0u : 1u}));
    }
  }
  const auto result = solveMaxMin(res, flows);
  // Aggregate rate: the hot link saturates at B; the cold link carries its
  // 8 single-target flows at their fair share of B.
  double total = 0.0;
  for (const auto r : result.rates) total += r;
  EXPECT_NEAR(total, 2.0 * kLinkB, 1e-6);
  // But the *balanced* data split means the effective bandwidth of an equal-
  // bytes-per-target write is dictated by the hot link: each hot flow gets
  // B/24, each cold flow B/8, i.e. the cold targets finish 3x earlier.
  EXPECT_NEAR(result.rates[0], kLinkB / 8.0, 1e-6);   // cold
  EXPECT_NEAR(result.rates[1], kLinkB / 24.0, 1e-6);  // hot
}

// --- SolverWorkspace over a CSR view ------------------------------------

/// A random CSR problem plus the flat arrays SolverWorkspace consumes.
struct CsrProblem {
  std::vector<double> capacity;
  std::vector<std::uint32_t> adjacency;
  std::vector<std::uint32_t> adjOffset;
  std::vector<std::uint32_t> adjLen;
  std::vector<double> weight;
  std::vector<double> rateCap;
  std::vector<std::uint32_t> multiplicity;  // empty: one flow per slot
  std::vector<std::uint32_t> subset;

  SolverView view() const {
    return SolverView{capacity, adjacency, adjOffset, adjLen, weight, rateCap, multiplicity};
  }
};

/// With `classes`, every slot stands for 1..6 identical flows.
CsrProblem randomCsrProblem(std::uint64_t seed, bool classes = false) {
  util::Rng rng(seed);
  CsrProblem p;
  const auto nRes = static_cast<std::size_t>(rng.uniformInt(1, 10));
  const auto nFlows = static_cast<std::size_t>(rng.uniformInt(1, 48));
  for (std::size_t r = 0; r < nRes; ++r) {
    // ~15% dead resources so the degenerate path is exercised routinely.
    p.capacity.push_back(rng.bernoulli(0.15) ? 0.0 : rng.uniform(10.0, 1000.0));
  }
  for (std::size_t f = 0; f < nFlows; ++f) {
    p.adjOffset.push_back(static_cast<std::uint32_t>(p.adjacency.size()));
    const auto pathLen = static_cast<std::size_t>(
        rng.uniformInt(1, static_cast<std::int64_t>(nRes)));
    p.adjLen.push_back(static_cast<std::uint32_t>(pathLen));
    for (const auto r : rng.sampleWithoutReplacement(nRes, pathLen)) {
      p.adjacency.push_back(static_cast<std::uint32_t>(r));
    }
    p.weight.push_back(rng.uniform(0.5, 4.0));
    p.rateCap.push_back(rng.bernoulli(0.3) ? rng.uniform(1.0, 300.0) : 0.0);
    p.subset.push_back(static_cast<std::uint32_t>(f));
  }
  if (classes) {
    for (std::size_t f = 0; f < nFlows; ++f) {
      p.multiplicity.push_back(static_cast<std::uint32_t>(rng.uniformInt(1, 6)));
    }
  }
  return p;
}

/// Property suite on random instances (dead resources included, and flow
/// classes in the odd ones): the walk's solution must pass the
/// walk-independent certificate -- feasible, and every flow blocked by its
/// cap or by a saturated resource where it has the largest normalized rate.
class MaxMinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinPropertyTest, FeasibleAndMaxMinOptimal) {
  const auto p = randomCsrProblem(1000 + GetParam(), GetParam() % 2 == 1);
  std::vector<double> rates(p.subset.size(), -1.0);
  SolverWorkspace workspace;
  workspace.solveSubset(p.view(), p.subset, rates);
  EXPECT_EQ(maxMinViolation(p.view(), p.subset, rates), "");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MaxMinPropertyTest, ::testing::Range(0, 25));

TEST(MaxMinCertificate, RejectsEveryOnePercentMove) {
  // Raising a flow's rate overloads the resource that blocks it; lowering
  // one leaves that resource unsaturated.  Either way the certificate names
  // a violation, whichever uncapped flow moves.
  std::size_t moved = 0;
  for (std::uint64_t seed = 900; seed < 940; ++seed) {
    const auto p = randomCsrProblem(seed, seed % 2 == 1);
    std::vector<double> rates(p.subset.size(), 0.0);
    SolverWorkspace workspace;
    workspace.solveSubset(p.view(), p.subset, rates);
    ASSERT_EQ(maxMinViolation(p.view(), p.subset, rates), "") << "seed " << seed;
    for (const auto f : p.subset) {
      if (p.rateCap[f] > 0.0 || rates[f] < 1e-3) continue;
      for (const double factor : {1.01, 0.99}) {
        auto perturbed = rates;
        perturbed[f] *= factor;
        EXPECT_NE(maxMinViolation(p.view(), p.subset, perturbed), "")
            << "seed " << seed << " slot " << f << " x" << factor;
        ++moved;
      }
    }
  }
  EXPECT_GT(moved, 100u);
}

TEST(MaxMinCertificate, NamesTheViolation) {
  // Link 0 (100) is shared; flow 1 also crosses link 1 (30): 70 / 30.
  const std::vector<double> capacity{100.0, 30.0};
  const std::vector<std::uint32_t> adjacency{0, 0, 1};
  const std::vector<std::uint32_t> offset{0, 1};
  const std::vector<std::uint32_t> len{1, 2};
  const std::vector<double> weight{1.0, 1.0};
  const std::vector<double> cap{0.0, 0.0};
  const SolverView view{capacity, adjacency, offset, len, weight, cap};
  const std::vector<std::uint32_t> subset{0, 1};
  EXPECT_EQ(maxMinViolation(view, subset, std::vector<double>{70.0, 30.0}), "");
  // Flow 1 frozen one step late: it kept filling past link 1's saturation.
  EXPECT_NE(maxMinViolation(view, subset, std::vector<double>{60.0, 40.0}).find("overloaded"),
            std::string::npos);
  // Flow 0 frozen a step early: link 0 has room left.
  EXPECT_NE(maxMinViolation(view, subset, std::vector<double>{50.0, 30.0}).find("saturated"),
            std::string::npos);
  EXPECT_NE(maxMinViolation(view, subset, std::vector<double>{-1.0, 30.0}).find("rate"),
            std::string::npos);
}

TEST(SolverWorkspace, MultiplicityMatchesExpandedFlows) {
  // The SolverView contract: a slot of multiplicity k loads each crossed
  // resource with k·weight and solves to the rate each of its k members gets
  // in the per-flow problem.  Expand every slot into k single-flow slots
  // with the same path, weight and cap, and compare.
  for (std::uint64_t seed = 500; seed < 580; ++seed) {
    const auto p = randomCsrProblem(seed, true);
    CsrProblem expanded;
    expanded.capacity = p.capacity;
    std::vector<std::uint32_t> owner;  // expanded slot -> class slot
    for (const auto f : p.subset) {
      for (std::uint32_t m = 0; m < p.multiplicity[f]; ++m) {
        expanded.adjOffset.push_back(p.adjOffset[f]);
        expanded.adjLen.push_back(p.adjLen[f]);
        expanded.weight.push_back(p.weight[f]);
        expanded.rateCap.push_back(p.rateCap[f]);
        expanded.subset.push_back(static_cast<std::uint32_t>(owner.size()));
        owner.push_back(f);
      }
    }
    expanded.adjacency = p.adjacency;  // offsets index the shared arena
    SolverWorkspace workspace;
    std::vector<double> classRates(p.subset.size(), -1.0);
    std::vector<double> flowRates(expanded.subset.size(), -1.0);
    workspace.solveSubset(p.view(), p.subset, classRates);
    workspace.solveSubset(expanded.view(), expanded.subset, flowRates);
    for (std::size_t e = 0; e < flowRates.size(); ++e) {
      const double expect = flowRates[e];
      EXPECT_NEAR(classRates[owner[e]], expect, 1e-9 * std::max(1.0, std::abs(expect)))
          << "seed " << seed << " slot " << owner[e];
    }
  }
}

TEST(SolverWorkspace, WorkspaceReuseDoesNotLeakStateAcrossSolves) {
  // One workspace solving many unrelated problems back to back must give the
  // same answers as fresh workspaces (the stamp discipline, not clearing,
  // isolates solves).
  SolverWorkspace reused;
  for (std::uint64_t seed = 700; seed < 715; ++seed) {
    const auto p = randomCsrProblem(seed);
    std::vector<double> reusedRates(p.subset.size(), 0.0);
    std::vector<double> freshRates(p.subset.size(), 0.0);
    reused.solveSubset(p.view(), p.subset, reusedRates);
    SolverWorkspace fresh;
    fresh.solveSubset(p.view(), p.subset, freshRates);
    EXPECT_EQ(reusedRates, freshRates) << "seed " << seed;
  }
}

TEST(SolverWorkspace, ZeroCapacityFlowsAreDeadAndReleaseTheirShare) {
  // Degenerate-input semantics (documented on solveSubset): a flow crossing
  // a zero-capacity resource gets rate 0 and contributes no weight anywhere,
  // so survivors split the healthy capacity as if the dead flow were absent.
  const std::vector<double> capacity{120.0, 0.0};
  const std::vector<std::uint32_t> adjacency{0, 0, 1, 0};
  const std::vector<std::uint32_t> adjOffset{0, 1, 3};
  const std::vector<std::uint32_t> adjLen{1, 2, 1};
  const std::vector<double> weight{1.0, 5.0, 2.0};
  const std::vector<double> rateCap{0.0, 0.0, 0.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  const std::vector<std::uint32_t> subset{0, 1, 2};
  std::vector<double> rates(3, -1.0);
  SolverWorkspace workspace;
  workspace.solveSubset(view, subset, rates);
  EXPECT_DOUBLE_EQ(rates[1], 0.0) << "dead flow (crosses the 0-capacity link)";
  EXPECT_NEAR(rates[0], 40.0, 1e-9) << "1:2 weighted split of 120";
  EXPECT_NEAR(rates[2], 80.0, 1e-9);
}

TEST(SolverWorkspace, EmptySubsetSolvesNothing) {
  const std::vector<double> capacity{100.0};
  const std::vector<std::uint32_t> adjacency{0};
  const std::vector<std::uint32_t> adjOffset{0};
  const std::vector<std::uint32_t> adjLen{1};
  const std::vector<double> weight{1.0};
  const std::vector<double> rateCap{0.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  SolverWorkspace workspace;
  std::vector<double> rates{-1.0};
  EXPECT_EQ(workspace.solveSubset(view, {}, rates), 0u);
  EXPECT_DOUBLE_EQ(rates[0], -1.0) << "rates outside the subset are untouched";
}

TEST(SolverWorkspace, AllDeadSubsetTerminatesWithZeroRates) {
  const std::vector<double> capacity{0.0};
  const std::vector<std::uint32_t> adjacency{0, 0};
  const std::vector<std::uint32_t> adjOffset{0, 1};
  const std::vector<std::uint32_t> adjLen{1, 1};
  const std::vector<double> weight{1.0, 2.0};
  const std::vector<double> rateCap{0.0, 50.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  const std::vector<std::uint32_t> subset{0, 1};
  std::vector<double> rates(2, -1.0);
  SolverWorkspace workspace;
  EXPECT_EQ(workspace.solveSubset(view, subset, rates), 0u);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
}

/// A random problem for the pinned walk: weights mostly from a small palette
/// (so slots share weight bits) and otherwise continuous, multiplicities up
/// to 5, caps of the fair-share order (so some bind mid-walk), ~5% dead
/// resources, and resource ids spread over [0, 256) so they collide mod 64.
/// Every fourth problem touches more than 64 resources.  The subset is a
/// shuffled ~90% of the slots; the rest are stale.
CsrProblem pinnedWalkProblem(std::uint64_t seed) {
  static constexpr double kPalette[] = {0.5, 1.0, 1.5, 2.0, 3.0, 1.0 / 3.0, 0.7};
  static constexpr std::size_t kIdSpace = 256;
  util::Rng rng(seed);
  CsrProblem p;
  for (std::size_t r = 0; r < kIdSpace; ++r) {
    p.capacity.push_back(rng.bernoulli(0.05) ? 0.0 : rng.uniform(10.0, 1000.0));
  }
  const bool wide = seed % 4 == 3;
  const auto nRes = static_cast<std::size_t>(wide ? rng.uniformInt(65, 160)
                                                  : rng.uniformInt(1, 12));
  const auto ids = rng.sampleWithoutReplacement(kIdSpace, nRes);
  const auto nFlows = static_cast<std::size_t>(wide ? rng.uniformInt(60, 140)
                                                    : rng.uniformInt(1, 40));
  for (std::size_t f = 0; f < nFlows; ++f) {
    p.adjOffset.push_back(static_cast<std::uint32_t>(p.adjacency.size()));
    const auto pathLen = static_cast<std::size_t>(
        rng.uniformInt(1, static_cast<std::int64_t>(std::min<std::size_t>(nRes, 6))));
    p.adjLen.push_back(static_cast<std::uint32_t>(pathLen));
    for (const auto i : rng.sampleWithoutReplacement(nRes, pathLen)) {
      p.adjacency.push_back(static_cast<std::uint32_t>(ids[i]));
    }
    p.weight.push_back(rng.bernoulli(0.7)
                           ? kPalette[rng.uniformInt(0, std::size(kPalette) - 1)]
                           : rng.uniform(0.25, 4.0));
    p.multiplicity.push_back(
        static_cast<std::uint32_t>(rng.bernoulli(0.5) ? 1 : rng.uniformInt(2, 5)));
    p.rateCap.push_back(rng.bernoulli(0.35) ? rng.uniform(1.0, 200.0) : 0.0);
    if (!rng.bernoulli(0.1)) p.subset.push_back(static_cast<std::uint32_t>(f));
  }
  rng.shuffle(p.subset);
  return p;
}

/// FNV-1a over 64-bit words.
void foldWord(std::uint64_t& digest, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (word >> (8 * byte)) & 0xff;
    digest *= 0x100000001b3ULL;
  }
}

TEST(SolverWorkspace, RandomWalkBitsArePinned) {
  // The walk's exact output over 200 random problems, folded into one
  // digest: every rate (stale slots included), the touched order, each
  // touched resource's residual and saturation flag, and the iteration
  // count.  A change to the walk that moves any of these bits -- an
  // operation reordered, an operand rounded differently -- changes the
  // digest.  One workspace solves them all, so stale scratch state from
  // an earlier solve would show too.
  SolverWorkspace workspace;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t wideSolves = 0, cappedSlots = 0, deadSlots = 0, longWalks = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto p = pinnedWalkProblem(seed);
    std::vector<double> rates(p.weight.size(), -7.0);
    const auto iterations = workspace.solveSubset(p.view(), p.subset, rates);
    foldWord(digest, iterations);
    for (const double rate : rates) foldWord(digest, std::bit_cast<std::uint64_t>(rate));
    const auto touched = workspace.touchedResources();
    foldWord(digest, touched.size());
    for (const auto r : touched) {
      foldWord(digest, r);
      foldWord(digest, std::bit_cast<std::uint64_t>(workspace.residual(r)));
      foldWord(digest, workspace.saturated(r) ? 1 : 0);
    }
    ASSERT_EQ(maxMinViolation(p.view(), p.subset, rates), "") << "seed " << seed;
    wideSolves += touched.size() > 64;
    longWalks += iterations >= 4;
    for (const auto f : p.subset) {
      cappedSlots += p.rateCap[f] > 0.0 && rates[f] >= p.rateCap[f] * (1.0 - 1e-9);
      deadSlots += rates[f] == 0.0;
    }
  }
  // The problems reach every case the digest is meant to pin.
  EXPECT_EQ(wideSolves, 50u);
  EXPECT_GE(longWalks, 100u);
  EXPECT_GE(cappedSlots, 400u);
  EXPECT_GE(deadSlots, 500u);
  EXPECT_EQ(digest, 0x70991dc3c52e34baULL);
}

/// Appends a slot crossing `path` to `p` and names it in the subset.
std::uint32_t addSlot(CsrProblem& p, const std::vector<std::uint32_t>& path, double weight,
                      double cap = 0.0, std::uint32_t multiplicity = 1) {
  const auto slot = static_cast<std::uint32_t>(p.weight.size());
  p.adjOffset.push_back(static_cast<std::uint32_t>(p.adjacency.size()));
  p.adjLen.push_back(static_cast<std::uint32_t>(path.size()));
  p.adjacency.insert(p.adjacency.end(), path.begin(), path.end());
  p.weight.push_back(weight);
  p.rateCap.push_back(cap);
  p.multiplicity.push_back(multiplicity);
  p.subset.push_back(slot);
  return slot;
}

TEST(SolverWorkspace, SignatureAliasingFreezesNoBystander) {
  // Two resources whose signature bits coincide sit in one component and
  // only one of them saturates: a class crossing only the other must keep
  // filling.  Resources 5 and 69 collide mod 64; in the wide case, a spine
  // class first touches resources 0..65 in order, so resources 1 and 65
  // collide both by id and by touch order.  Link 1 (resp. 5) holds 10 for
  // two classes, which freeze at 5; the bystander then takes what the
  // shared class leaves of its own link: 1000 - 5.
  struct Case {
    std::uint32_t hot, cold;
    bool spine;
  };
  for (const auto& [hot, cold, spine] : {Case{5, 69, false}, Case{1, 65, true}}) {
    CsrProblem p;
    p.capacity.assign(70, 1000.0);
    p.capacity[hot] = 10.0;
    std::uint32_t shared = 0;
    if (spine) {
      std::vector<std::uint32_t> all(66);
      std::iota(all.begin(), all.end(), 0u);
      shared = addSlot(p, all, 1.0);
    } else {
      shared = addSlot(p, {hot, cold}, 1.0);
    }
    const auto onHot = addSlot(p, {hot}, 1.0);
    const auto bystander = addSlot(p, {cold}, 1.0);
    std::vector<double> rates(p.weight.size(), -1.0);
    SolverWorkspace workspace;
    EXPECT_EQ(workspace.solveSubset(p.view(), p.subset, rates), 2u) << "cold " << cold;
    EXPECT_EQ(rates[shared], 5.0);
    EXPECT_EQ(rates[onHot], 5.0);
    EXPECT_EQ(rates[bystander], 995.0) << "cold " << cold;
    EXPECT_TRUE(workspace.saturated(hot));
    EXPECT_TRUE(workspace.saturated(cold));
    EXPECT_EQ(maxMinViolation(p.view(), p.subset, rates), "");
  }
}

TEST(SolverWorkspace, EqualWeightClassesShareOneRateYetFreezeApart) {
  // Four classes of weight 2 with different multiplicities and caps freeze
  // in four different iterations: c0 at its cap 4 (delta 2), c2 at its cap
  // 10 (delta 3), c1 when link 1 saturates at 25 (delta 7.5), c3 when link
  // 0 does at 38 (delta 6.5).  The class solve equals the
  // multiplicity-expanded per-flow solve bit for bit.
  CsrProblem p;
  p.capacity = {100.0, 60.0};
  const auto c0 = addSlot(p, {0}, 2.0, 4.0, 3);
  const auto c1 = addSlot(p, {0, 1}, 2.0, 0.0, 2);
  const auto c2 = addSlot(p, {1}, 2.0, 10.0, 1);
  const auto c3 = addSlot(p, {0}, 2.0, 0.0, 1);
  SolverWorkspace workspace;
  std::vector<double> classRates(p.weight.size(), -1.0);
  EXPECT_EQ(workspace.solveSubset(p.view(), p.subset, classRates), 4u);
  EXPECT_EQ(classRates[c0], 4.0);
  EXPECT_EQ(classRates[c1], 25.0);
  EXPECT_EQ(classRates[c2], 10.0);
  EXPECT_EQ(classRates[c3], 38.0);

  CsrProblem expanded;
  expanded.capacity = p.capacity;
  std::vector<std::uint32_t> owner;  // expanded slot -> class slot
  for (const auto f : p.subset) {
    const std::vector<std::uint32_t> path(p.adjacency.begin() + p.adjOffset[f],
                                          p.adjacency.begin() + p.adjOffset[f] + p.adjLen[f]);
    for (std::uint32_t m = 0; m < p.multiplicity[f]; ++m) {
      addSlot(expanded, path, p.weight[f], p.rateCap[f]);
      owner.push_back(f);
    }
  }
  std::vector<double> flowRates(expanded.weight.size(), -1.0);
  EXPECT_EQ(workspace.solveSubset(expanded.view(), expanded.subset, flowRates), 4u);
  for (std::size_t e = 0; e < flowRates.size(); ++e) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(flowRates[e]),
              std::bit_cast<std::uint64_t>(classRates[owner[e]]))
        << "expanded slot " << e;
  }
  EXPECT_EQ(maxMinViolation(p.view(), p.subset, classRates), "");
}

TEST(SolverWorkspace, PostWalkStateAfterTheLastIteration) {
  // The walk releases no load after its last iteration; what it reports per
  // resource must not depend on that.  Flow 0 crosses links A (100), B
  // (300) and C (500); flow 1 crosses B with cap 150.  Iteration 1: delta
  // 100 saturates A and freezes flow 0 (B 300 - 200 = 100, C 400).
  // Iteration 2: only B fills; flow 1 stops at its cap with delta 50,
  // leaving B at 50 and unsaturated, C untouched at 400.
  const std::vector<double> capacity{100.0, 300.0, 500.0};
  const std::vector<std::uint32_t> adjacency{0, 1, 2, 1};
  const std::vector<std::uint32_t> adjOffset{0, 3};
  const std::vector<std::uint32_t> adjLen{3, 1};
  const std::vector<double> weight{1.0, 1.0};
  const std::vector<double> rateCap{0.0, 150.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  const std::vector<std::uint32_t> subset{0, 1};
  std::vector<double> rates(2, -1.0);
  SolverWorkspace workspace;
  EXPECT_EQ(workspace.solveSubset(view, subset, rates), 2u);
  EXPECT_EQ(rates[0], 100.0);
  EXPECT_EQ(rates[1], 150.0);
  const auto touched = workspace.touchedResources();
  EXPECT_EQ(std::vector<std::uint32_t>(touched.begin(), touched.end()),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(workspace.residual(0), 0.0);
  EXPECT_TRUE(workspace.saturated(0));
  EXPECT_EQ(workspace.residual(1), 50.0);
  EXPECT_FALSE(workspace.saturated(1));
  EXPECT_EQ(workspace.residual(2), 400.0);
  EXPECT_FALSE(workspace.saturated(2));
}

TEST(SolverWorkspace, InvalidFlowsAreRejected) {
  const std::vector<double> capacity{100.0};
  const std::vector<std::uint32_t> adjacency{0, 7};
  const std::vector<std::uint32_t> adjOffset{0, 1};
  const std::vector<std::uint32_t> adjLen{0, 1};  // slot 0: empty path
  const std::vector<double> weight{1.0, 1.0};
  const std::vector<double> rateCap{0.0, 0.0};
  const SolverView view{capacity, adjacency, adjOffset, adjLen, weight, rateCap};
  SolverWorkspace workspace;
  std::vector<double> rates(2, 0.0);
  const std::vector<std::uint32_t> emptyPath{0};
  EXPECT_THROW(workspace.solveSubset(view, emptyPath, rates), util::ContractError);
  const std::vector<std::uint32_t> unknownRes{1};  // adjacency says resource 7
  EXPECT_THROW(workspace.solveSubset(view, unknownRes, rates), util::ContractError);
}

}  // namespace
}  // namespace beesim::sim

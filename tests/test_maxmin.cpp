#include "sim/maxmin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

#include "beegfs/deployment.hpp"

#include <gtest/gtest.h>

#include "topology/plafrim.hpp"
#include "util/error.hpp"

namespace beesim::beegfs {
namespace {

struct Fixture {
  sim::FluidSimulator fluid;
  topo::ClusterConfig cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  Deployment deployment;

  explicit Fixture(BeegfsParams params = {}, EnvironmentFactors env = {})
      : deployment(fluid, cluster, params, util::Rng(1), env) {}
};

TEST(Deployment, CreatesAllResources) {
  Fixture f;
  // 4 nodes x (client + nic) + 2 hosts x (nic + oss) + 8 osts = 20.
  EXPECT_EQ(f.fluid.resourceCount(), 20u);
  EXPECT_FALSE(f.deployment.backboneResource().has_value());  // non-blocking switch
}

TEST(Deployment, WritePathCrossesClientNicServerOssOst) {
  Fixture f;
  const auto path = f.deployment.writePath(2, 5);  // node 2 -> host 1 target 1
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path[0].value, f.deployment.clientResource(2).value);
  EXPECT_EQ(path[1].value, f.deployment.nodeNicResource(2).value);
  EXPECT_EQ(path[2].value, f.deployment.serverNicResource(1).value);
  EXPECT_EQ(path[3].value, f.deployment.ossResource(1)->value);
  EXPECT_EQ(path[4].value, f.deployment.ostResource(5).value);
}

TEST(Deployment, ZeroServiceCapSkipsOssResource) {
  sim::FluidSimulator fluid;
  auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 2);
  for (auto& host : cluster.hosts) host.serviceCap = 0.0;
  Deployment deployment(fluid, cluster, BeegfsParams{}, util::Rng(1));
  EXPECT_FALSE(deployment.ossResource(0).has_value());
  EXPECT_EQ(deployment.writePath(0, 0).size(), 4u);
}

TEST(Deployment, BackboneResourceWhenConfigured) {
  sim::FluidSimulator fluid;
  auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 2);
  cluster.network.backboneBandwidth = 5000.0;
  Deployment deployment(fluid, cluster, BeegfsParams{}, util::Rng(1));
  ASSERT_TRUE(deployment.backboneResource().has_value());
  EXPECT_EQ(deployment.writePath(0, 0).size(), 6u);
}

TEST(Deployment, EffectiveInflightIsBoundedByWorkers) {
  Fixture f;
  // 8 workers, 8 inflight/process: 1 process already saturates the workers.
  EXPECT_DOUBLE_EQ(f.deployment.nodeEffectiveInflight(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(f.deployment.nodeEffectiveInflight(0, 8), 8.0);
}

TEST(Deployment, OversubscriptionErodesInflight) {
  Fixture f;
  const double at8 = f.deployment.nodeEffectiveInflight(0, 8);
  const double at16 = f.deployment.nodeEffectiveInflight(0, 16);
  const double at32 = f.deployment.nodeEffectiveInflight(0, 32);
  EXPECT_LT(at16, at8);
  EXPECT_LT(at32, at16);
  // The intra-node contention of Fig. 5b is mild: under 30% at 16 ppn.
  EXPECT_GT(at16, 0.7 * at8);
}

TEST(Deployment, EnvironmentFactorsScaleCapacities) {
  // Compare a flow's completion through the same path under two network
  // factors.
  auto runWith = [](double networkFactor) {
    sim::FluidSimulator fluid;
    auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 1);
    cluster.nodes[0].clientThroughputCap = 1e5;  // expose the network links
    Deployment deployment(fluid, cluster, BeegfsParams{}, util::Rng(1),
                          EnvironmentFactors{networkFactor, 1.0});
    double end = 0.0;
    fluid.startFlow(sim::FlowSpec{
        .path = deployment.writePath(0, 0),
        .bytes = 512ULL * 1024 * 1024,
        .queueWeight = 64.0,  // deep queue: device ramp not the limiter
        .rateCap = 0.0,
        .onComplete = [&](const sim::FlowStats& s) { end = s.endTime; }});
    fluid.run();
    return end;
  };
  const double slow = runWith(0.5);
  const double fast = runWith(1.0);
  EXPECT_NEAR(slow / fast, 2.0, 0.05);
}

TEST(Deployment, RampFactorStartsLowAndRecovers) {
  // Compare the same single-node write with and without a marked job start:
  // the ramp must slow the early phase down.
  auto runWith = [](bool markStart) {
    sim::FluidSimulator fluid;
    const auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 1);
    Deployment deployment(fluid, cluster, BeegfsParams{}, util::Rng(1));
    deployment.setNodeProcesses(0, 8);
    if (markStart) deployment.markNodeJobStart(0, 0.0);
    double end = 0.0;
    fluid.startFlow(sim::FlowSpec{
        .path = deployment.writePath(0, 0),
        .bytes = 256ULL * 1024 * 1024,
        .queueWeight = 64.0,
        .rateCap = 0.0,
        .onComplete = [&](const sim::FlowStats& s) { end = s.endTime; }});
    fluid.run();
    return end;
  };
  EXPECT_GT(runWith(true), runWith(false));
}

TEST(Deployment, ResetNodeClearsJobState) {
  Fixture f;
  f.deployment.setNodeProcesses(1, 16);
  f.deployment.markNodeJobStart(1, 5.0);
  f.deployment.resetNode(1);
  // After reset, behaves like a fresh node: verified indirectly via the
  // inflight (process-count independent) and absence of contract errors.
  EXPECT_DOUBLE_EQ(f.deployment.nodeEffectiveInflight(1, 8), 8.0);
}

TEST(Deployment, MarkJobStartKeepsEarliest) {
  Fixture f;
  f.deployment.markNodeJobStart(0, 10.0);
  f.deployment.markNodeJobStart(0, 5.0);
  f.deployment.markNodeJobStart(0, 20.0);
  // No accessor for jobStart; the invariant is exercised by the ramp tests.
  SUCCEED();
}

TEST(Deployment, InvalidIndicesThrow) {
  Fixture f;
  EXPECT_THROW(f.deployment.writePath(99, 0), util::ContractError);
  EXPECT_THROW(f.deployment.writePath(0, 99), util::ContractError);
  EXPECT_THROW(f.deployment.setNodeProcesses(99, 1), util::ContractError);
  EXPECT_THROW(f.deployment.nodeEffectiveInflight(0, 0), util::ContractError);
  EXPECT_THROW(f.deployment.clientResource(99), util::ContractError);
  EXPECT_THROW(f.deployment.ostResource(99), util::ContractError);
}

TEST(Deployment, InvalidEnvironmentThrows) {
  sim::FluidSimulator fluid;
  const auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 1);
  EXPECT_THROW(Deployment(fluid, cluster, BeegfsParams{}, util::Rng(1),
                          EnvironmentFactors{0.0, 1.0}),
               util::ContractError);
}

TEST(MakeVariability, InstantiatesEveryKind) {
  using Kind = topo::VariabilitySpec::Kind;
  EXPECT_NE(makeVariability(topo::VariabilitySpec{Kind::kNone, 0, 0, 0, 1.0}), nullptr);
  EXPECT_NE(makeVariability(topo::VariabilitySpec{Kind::kLogNormal, 0.1, 0, 0, 1.0}), nullptr);
  EXPECT_NE(makeVariability(topo::VariabilitySpec{Kind::kGaussian, 0.1, 0, 0, 1.0}), nullptr);
  EXPECT_NE(makeVariability(topo::VariabilitySpec{Kind::kSlowPhase, 0.1, 0.1, 0.5, 0.8}),
            nullptr);
}

}  // namespace
}  // namespace beesim::beegfs

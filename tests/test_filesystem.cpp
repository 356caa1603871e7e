#include "beegfs/filesystem.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/allocation.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace beesim::beegfs {
namespace {

using namespace beesim::util::literals;

struct Fixture {
  sim::FluidSimulator fluid;
  topo::ClusterConfig cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 4);
  Deployment deployment;
  FileSystem fs;

  explicit Fixture(BeegfsParams params = {})
      : deployment(fluid, cluster, params, util::Rng(1)), fs(deployment, util::Rng(2)) {}
};

TEST(FileSystem, DefaultDirectoryUsesDeploymentDefaults) {
  Fixture f;
  const auto& pattern = f.fs.info(f.fs.create("/anything/file")).pattern;
  EXPECT_EQ(pattern.stripeCount(), 4u);  // PlaFRIM default
  EXPECT_EQ(pattern.chunkSize(), 512_KiB);
}

TEST(FileSystem, CreateUsesDirectoryStripeCount) {
  BeegfsParams params;
  params.defaultStripe = StripeSettings{8, 1_MiB};
  Fixture f(params);
  const auto handle = f.fs.create("/wide/out.dat");
  EXPECT_EQ(f.fs.info(handle).pattern.stripeCount(), 8u);
  EXPECT_EQ(f.fs.info(handle).pattern.chunkSize(), 1_MiB);
}

TEST(FileSystem, RoundRobinCreateAlwaysGives13OnPlafrim) {
  BeegfsParams params;
  params.rrCreateRaceProbability = 0.0;
  Fixture f(params);
  for (int i = 0; i < 8; ++i) {
    const auto handle = f.fs.create("/beegfs/f" + std::to_string(i));
    const core::Allocation alloc(f.fs.info(handle).pattern.targets(), f.cluster);
    EXPECT_EQ(alloc.key(), "(1,3)");
  }
}

TEST(FileSystem, CreatePinnedBypassesChooser) {
  Fixture f;
  const auto handle = f.fs.createPinned("/pinned", {0, 4}, 1_MiB);
  EXPECT_EQ(f.fs.info(handle).pattern.targets(), (std::vector<std::size_t>{0, 4}));
  EXPECT_EQ(f.fs.info(handle).pattern.chunkSize(), 1_MiB);
}

TEST(FileSystem, CreatePinnedRejectsUnknownTargets) {
  Fixture f;
  EXPECT_THROW(f.fs.createPinned("/pinned", {99}, 1_MiB), util::ContractError);
}

TEST(FileSystem, StripeCountClampsToOnlineTargets) {
  BeegfsParams params;
  params.defaultStripe.stripeCount = 8;
  Fixture f(params);
  for (std::size_t t = 2; t < 8; ++t) f.deployment.mgmt().setTargetOnline(t, false);
  const auto handle = f.fs.create("/clamped");
  EXPECT_EQ(f.fs.info(handle).pattern.stripeCount(), 2u);
}

TEST(FileSystem, OfflineTargetsAreAvoided) {
  BeegfsParams params;
  params.chooser = ChooserKind::kRandom;
  Fixture f(params);
  f.deployment.mgmt().setTargetOnline(0, false);
  f.deployment.mgmt().setTargetOnline(1, false);
  for (int i = 0; i < 50; ++i) {
    const auto handle = f.fs.create("/nofail/f" + std::to_string(i));
    for (const auto t : f.fs.info(handle).pattern.targets()) {
      EXPECT_TRUE(f.deployment.mgmt().target(t).online);
    }
  }
}

TEST(FileSystem, NoOnlineTargetsThrows) {
  Fixture f;
  for (std::size_t t = 0; t < 8; ++t) f.deployment.mgmt().setTargetOnline(t, false);
  EXPECT_THROW(f.fs.create("/doomed"), util::ConfigError);
}

TEST(FileSystem, WriteCompletesAndTracksSizeAndUsage) {
  Fixture f;
  const auto handle = f.fs.createPinned("/w", {0, 4}, 512_KiB);
  f.deployment.setNodeProcesses(0, 1);
  bool done = false;
  f.fs.writeAsync(0, handle, 0, 64_MiB, 4.0, [&](util::Seconds) { done = true; });
  f.fluid.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.fs.info(handle).size, 64_MiB);
  EXPECT_EQ(f.deployment.mgmt().target(0).used, 32_MiB);
  EXPECT_EQ(f.deployment.mgmt().target(4).used, 32_MiB);
}

TEST(FileSystem, BalancedWriteIsFasterThanUnbalancedOnScenario1) {
  // The Fig. 9 effect at file-system level: same bytes, (1,1) vs (0,2).
  // The writing node's client stack must not be the bottleneck, so lift it.
  auto timeFor = [](std::vector<std::size_t> targets) {
    sim::FluidSimulator fluid;
    auto cluster = topo::makePlafrim(topo::Scenario::kEthernet10G, 1);
    cluster.nodes[0].clientThroughputCap = 1e5;
    cluster.nodes[0].nicBandwidth = 1e5;
    Deployment deployment(fluid, cluster, BeegfsParams{}, util::Rng(1));
    FileSystem fs(deployment, util::Rng(2));
    const auto handle = fs.createPinned("/x", std::move(targets), 512_KiB);
    double end = 0.0;
    fs.writeAsync(0, handle, 0, 2_GiB, 64.0, [&](util::Seconds t) { end = t; });
    fluid.run();
    return end;
  };
  const double balanced = timeFor({0, 4});
  const double unbalanced = timeFor({4, 5});
  EXPECT_LT(balanced, unbalanced);
  EXPECT_NEAR(unbalanced / balanced, 2.0, 0.15);
}

TEST(FileSystem, ZeroLengthWriteCompletesViaEvent) {
  Fixture f;
  const auto handle = f.fs.createPinned("/z", {0}, 512_KiB);
  bool done = false;
  f.fs.writeAsync(0, handle, 0, 0, 1.0, [&](util::Seconds) { done = true; });
  EXPECT_FALSE(done);  // asynchronous: fires from the event loop
  f.fluid.run();
  EXPECT_TRUE(done);
}

TEST(FileSystem, InvalidArgumentsThrow) {
  Fixture f;
  EXPECT_THROW(f.fs.create("relative/path"), util::ContractError);
  EXPECT_THROW(f.fs.info(FileHandle{42}), util::ContractError);
  const auto handle = f.fs.createPinned("/v", {0}, 512_KiB);
  EXPECT_THROW(f.fs.writeAsync(0, handle, 0, 1_MiB, 0.0, nullptr), util::ContractError);
  EXPECT_THROW(f.fs.writeAsync(0, FileHandle{42}, 0, 1_MiB, 1.0, nullptr),
               util::ContractError);
}

TEST(FileSystem, ReadRequiresDataToExist) {
  Fixture f;
  const auto handle = f.fs.createPinned("/r", {0, 4}, 512_KiB);
  EXPECT_THROW(f.fs.readAsync(0, handle, 0, 1_MiB, 1.0, nullptr), util::ContractError);
  f.fs.truncate(handle, 2_MiB);
  bool done = false;
  f.fs.readAsync(0, handle, 0, 2_MiB, 4.0, [&](util::Seconds) { done = true; });
  f.fluid.run();
  EXPECT_TRUE(done);
  // Reads do not consume capacity accounting.
  EXPECT_EQ(f.deployment.mgmt().target(0).used, 0u);
}

TEST(FileSystem, TruncateSetsLogicalSize) {
  Fixture f;
  const auto handle = f.fs.createPinned("/t", {1}, 512_KiB);
  EXPECT_EQ(f.fs.info(handle).size, 0u);
  f.fs.truncate(handle, 5_GiB);
  EXPECT_EQ(f.fs.info(handle).size, 5_GiB);
  EXPECT_THROW(f.fs.truncate(FileHandle{42}, 1), util::ContractError);
}

TEST(FileSystem, FileCountTracksCreates) {
  Fixture f;
  EXPECT_EQ(f.fs.fileCount(), 0u);
  f.fs.create("/a");
  f.fs.createPinned("/b", {1}, 512_KiB);
  EXPECT_EQ(f.fs.fileCount(), 2u);
}

}  // namespace
}  // namespace beesim::beegfs

#include "beegfs/meta.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "alloc_probe.hpp"
#include "beegfs/deployment.hpp"
#include "beegfs/filesystem.hpp"
#include "ior/mdtest.hpp"
#include "sim/fluid.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"

namespace beesim::beegfs {
namespace {

TEST(Meta, CostsArePositiveWithDefaults) {
  MetaService meta(MetaParams{}, util::Rng(1));
  EXPECT_GT(meta.createCost(), 0.0);
  EXPECT_GT(meta.openAllCost(8), 0.0);
  // create (1) + openAll over 8 ranks (8): openAllCost serves one open per
  // concurrent rank, so the counter moves by the rank count.
  EXPECT_EQ(meta.opsServed(), 9u);
}

TEST(Meta, OpenPileUpGrowsLogarithmically) {
  MetaParams params;
  params.jitterSigmaLog = 0.0;  // deterministic
  MetaService meta(params, util::Rng(3));
  const double one = meta.openAllCost(1);
  const double many = meta.openAllCost(256);
  EXPECT_GT(many, one);
  // 1 + ln(256) ~ 6.55 -> bounded pile-up, not linear.
  EXPECT_LT(many, 10.0 * one);
  EXPECT_NEAR(many / one, 1.0 + std::log(256.0), 1e-9);
}

TEST(Meta, JitterVariesCosts) {
  MetaService meta(MetaParams{}, util::Rng(4));
  const double a = meta.createCost();
  const double b = meta.createCost();
  EXPECT_NE(a, b);
}

TEST(Meta, DeterministicGivenSeed) {
  MetaService a(MetaParams{}, util::Rng(5));
  MetaService b(MetaParams{}, util::Rng(5));
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.createCost(), b.createCost());
}

TEST(Meta, InvalidParamsThrow) {
  MetaParams params;
  params.jitterSigmaLog = -0.5;
  EXPECT_THROW(MetaService(params, util::Rng(6)), util::ContractError);
  params = MetaParams{};
  params.mdtCount = 0;
  EXPECT_THROW(MetaService(params, util::Rng(6)), util::ContractError);
}

TEST(Meta, OpenAllNeedsARank) {
  MetaService meta(MetaParams{}, util::Rng(7));
  EXPECT_THROW(meta.openAllCost(0), util::ContractError);
}

TEST(Meta, SteadyStateMdtestOpAllocatesNothing) {
  // A warmed-up mdtest op -- chooser call, jitter draw, MDT flow start, its
  // completion and the rank's next issue -- makes no heap allocation.
  sim::FluidSimulator fluid;
  fluid.setSolverCheck(false);  // the differential check allocates by design
  const auto cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, 4);
  BeegfsParams params;
  params.meta.queued = true;
  params.meta.mdtCount = 4;
  util::Rng rng(31);
  Deployment deployment(fluid, cluster, params, rng.split());
  FileSystem fs(deployment, rng.split());
  ior::MdtestOptions options;
  options.filesPerRank = 512;  // 4096 ops per phase over 8 ranks
  bool finished = false;
  ior::launchMdtest(fs, ior::IorJob{{0, 1}, 4}, options, 0.0,
                    [&finished](const ior::MdtestResult&) { finished = true; });
  auto& meta = deployment.meta();
  const auto stepUntilOps = [&](std::uint64_t ops) {
    while (meta.opsServed() < ops && fluid.engine().step()) {
    }
  };
  // Warm up flow slots, classes, event slots, free lists and the drain list.
  stepUntilOps(2048);
  const auto opsBefore = meta.opsServed();
  {
    test::AllocProbe probe;
    stepUntilOps(opsBefore + 512);  // inside the create phase
    EXPECT_EQ(probe.count(), 0u) << "a steady-state metadata op must not allocate";
  }
  EXPECT_GE(meta.opsServed(), opsBefore + 512);
  fluid.run();
  EXPECT_TRUE(finished);
}

}  // namespace
}  // namespace beesim::beegfs

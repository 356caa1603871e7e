// Custom cluster explorer: apply the paper's methodology to *your* system
// (goal (ii) of the paper: "a more general and systematic methodology for
// conducting such evaluations on other systems").
//
//   $ ./custom_cluster [hosts] [targets-per-host] [serverLinkMiBps] [nodes]
//
// Builds a uniform cluster from the command line, sweeps the stripe counts
// and pinned allocation classes, and prints where that system's bottleneck
// sits: a Scenario-1-like system shows the balance effect, a
// Scenario-2-like one the count effect.
#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/allocation.hpp"
#include "core/analytic.hpp"
#include "harness/run.hpp"
#include "stats/summary.hpp"
#include "topology/cluster.hpp"
#include "util/table.hpp"

using namespace beesim;
using namespace beesim::util::literals;

int main(int argc, char** argv) {
  topo::UniformClusterSpec spec;
  spec.name = "custom";
  spec.storageHosts = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 3;
  spec.targetsPerHost = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
  spec.serverNic = argc > 3 ? std::atof(argv[3]) : 2000.0;
  const std::size_t nodes = argc > 4 ? static_cast<std::size_t>(std::atoi(argv[4])) : 16;
  spec.computeNodes = nodes;
  spec.nodeNic = spec.serverNic;
  spec.nodeClientCap = 1600.0;
  spec.serverServiceCap = 4500.0;
  spec.targetVariability = topo::VariabilitySpec{.sigmaLog = 0.05};

  const auto cluster = topo::buildUniformCluster(spec);
  const storage::HddRaidModel ostModel(spec.targetDevice);
  std::printf("custom cluster: %zu hosts x %zu OSTs, server links %.0f MiB/s, "
              "%zu compute nodes\n",
              spec.storageHosts, spec.targetsPerHost, spec.serverNic, nodes);
  std::printf("per-OST streaming peak: %s; per-host analytic storage peak: %s\n\n",
              util::formatBandwidth(ostModel.peakRate()).c_str(),
              util::formatBandwidth(ostModel.peakRate() *
                                    static_cast<double>(spec.targetsPerHost))
                  .c_str());

  // Sweep the stripe counts with the balanced chooser, a few reps each.
  util::TableWriter table({"stripe count", "mean MiB/s", "sd", "network bound (Fig. 3)"});
  const std::size_t total = cluster.targetCount();
  for (std::size_t count = 1; count <= total; count = count < 4 ? count + 1 : count * 2) {
    std::vector<double> bw;
    for (int rep = 0; rep < 15; ++rep) {
      harness::RunConfig config;
      config.cluster = cluster;
      config.fs.defaultStripe.stripeCount = static_cast<unsigned>(count);
      config.fs.chooser = beegfs::ChooserKind::kBalanced;
      config.job = ior::IorJob::onFirstNodes(nodes, 8);
      config.ior.blockSize = ior::blockSizeForTotal(
          static_cast<util::Bytes>(config.job.ranks()) * 512_MiB, config.job.ranks());
      bw.push_back(harness::runOnce(config, 31000 + count * 100 + rep).ior.bandwidth);
    }
    const auto s = stats::summarize(bw);
    const auto usedHosts = std::min(count, spec.storageHosts);
    table.addRow({std::to_string(count), util::fmt(s.mean, 1), util::fmt(s.sd, 1),
                  util::formatBandwidth(core::networkBound(nodes, usedHosts, spec.serverNic))});
  }
  std::printf("%s\n", table.render().c_str());

  // Balance exploration at a fixed count: best vs worst allocation.
  const std::size_t count = std::min<std::size_t>(spec.storageHosts, total);
  std::vector<std::size_t> balancedPick;
  std::vector<std::size_t> skewedPick;
  for (std::size_t h = 0; h < count; ++h) balancedPick.push_back(cluster.flatTargetIndex(h, 0));
  for (std::size_t t = 0; t < count && t < spec.targetsPerHost; ++t) {
    skewedPick.push_back(cluster.flatTargetIndex(0, t));
  }
  auto measure = [&](std::vector<std::size_t> targets) {
    harness::RunConfig config;
    config.cluster = cluster;
    config.pinnedTargets = std::move(targets);
    config.fs.defaultStripe.stripeCount = static_cast<unsigned>(count);
    config.job = ior::IorJob::onFirstNodes(nodes, 8);
    config.ior.blockSize = ior::blockSizeForTotal(
        static_cast<util::Bytes>(config.job.ranks()) * 512_MiB, config.job.ranks());
    std::vector<double> bw;
    for (int rep = 0; rep < 15; ++rep) {
      bw.push_back(harness::runOnce(config, 32000 + rep).ior.bandwidth);
    }
    return stats::summarize(bw).mean;
  };
  const double spread = measure(balancedPick);
  const double packed = skewedPick.size() == count ? measure(skewedPick) : 0.0;
  std::printf("allocation exploration at stripe count %zu:\n", count);
  std::printf("  one target per host %s: %s\n",
              core::Allocation(balancedPick, cluster).key().c_str(),
              util::formatBandwidth(spread).c_str());
  if (packed > 0.0) {
    std::printf("  all on one host     %s: %s  (%+.1f%% vs spread)\n",
                core::Allocation(skewedPick, cluster).key().c_str(),
                util::formatBandwidth(packed).c_str(), 100.0 * (packed - spread) / spread);
    std::printf("\n%s\n", packed < 0.95 * spread
                              ? "=> Scenario-1-like: balance your allocations (Lesson #4)."
                              : "=> storage-bound: the target count is what matters "
                                "(Lesson #6).");
  }
  return 0;
}

// Figure 9: analytic time/bandwidth diagram for writing 32 GiB over two
// storage targets, balanced (1,1) vs unbalanced (0,2), when each server is
// reached through one link of bandwidth B.
//
// The balanced placement streams at 2B and finishes in half the time; the
// fluid simulator must agree with the closed form.
#include "bench/common.hpp"
#include "core/analytic.hpp"
#include "harness/run.hpp"

using namespace beesim;
using namespace beesim::util::literals;

namespace {

/// Noise-free fluid measurement of a pinned two-target write.
double fluidTime(const std::vector<std::size_t>& targets) {
  auto config = bench::plafrimRun(topo::Scenario::kEthernet10G, 8, 8, 2);
  config.cluster.network.serverLinkNoiseSigmaLog = 0.0;
  for (auto& host : config.cluster.hosts) {
    for (auto& target : host.targets) target.variability = topo::VariabilitySpec{};
  }
  config.fs.client.rampTau = 0.0;
  config.noise = harness::NoiseSpec{0.0, 0.0};
  config.pinnedTargets = targets;
  const auto record = harness::runOnce(config, 1);
  // The write alone: the create/open phase before it is not in the model.
  return record.ior.end - record.ior.start - record.ior.metaTime;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  const double linkB = topo::PlafrimCalibration{}.s1ServerLink;
  const auto volume = bench::kTotalData;

  util::TableWriter table(
      {"placement", "rate (model)", "end time (model)", "end time (fluid)", "diff %"});
  core::CheckList checks("Fig. 9 -- balanced vs unbalanced two-target write");

  const auto balanced = core::twoTargetTimeline(volume, true, linkB);
  const auto unbalanced = core::twoTargetTimeline(volume, false, linkB);
  const double fluidBalanced = fluidTime({0, 4});
  const double fluidUnbalanced = fluidTime({4, 5});

  table.addRow({"(1,1) balanced", util::formatBandwidth(balanced[0].totalRate),
                util::formatSeconds(balanced[0].end), util::formatSeconds(fluidBalanced),
                util::fmt(100.0 * (fluidBalanced - balanced[0].end) / balanced[0].end, 2)});
  table.addRow({"(0,2) unbalanced", util::formatBandwidth(unbalanced[0].totalRate),
                util::formatSeconds(unbalanced[0].end), util::formatSeconds(fluidUnbalanced),
                util::fmt(100.0 * (fluidUnbalanced - unbalanced[0].end) / unbalanced[0].end,
                          2)});
  bench::printFigure("Fig. 9: writing " + util::formatBytes(volume) + " over two targets, B=" +
                         util::formatBandwidth(linkB),
                     table);

  checks.expectRatio("analytic: unbalanced takes 2x as long", unbalanced[0].end,
                     balanced[0].end, 2.0, 1e-9);
  checks.expectNear("fluid matches analytic, balanced", fluidBalanced, balanced[0].end, 0.02);
  checks.expectNear("fluid matches analytic, unbalanced", fluidUnbalanced, unbalanced[0].end,
                    0.02);
  checks.expectNear("both placements move the same volume",
                    balanced[0].totalRate * balanced[0].end,
                    unbalanced[0].totalRate * unbalanced[0].end, 1e-9);
  return bench::finish(checks);
}

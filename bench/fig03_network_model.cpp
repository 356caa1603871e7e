// Figure 3: analytic network bound -- N compute nodes against M storage
// servers with equal link capacity B are limited by B*min(N, M).
//
// The bench prints the closed-form curve for PlaFRIM's M=2 and validates it
// against the fluid simulator with the storage side made infinitely fast
// (so only the network matters).
#include "bench/common.hpp"
#include "core/analytic.hpp"
#include "harness/run.hpp"

using namespace beesim;
using namespace beesim::util::literals;

namespace {

/// Fluid-measured network-only bound: PlaFRIM-S1 wiring, but with storage
/// devices and client stacks fast enough to never bind.
double fluidNetworkBound(std::size_t nodes) {
  const auto total = static_cast<util::Bytes>(nodes) * 8 * 256_MiB;  // divisible by ranks
  auto config = bench::plafrimRun(topo::Scenario::kEthernet10G, nodes, 8, 8, total);
  for (auto& node : config.cluster.nodes) {
    node.clientThroughputCap = 1e6;
    node.nicBandwidth = config.cluster.hosts[0].nicBandwidth;  // same link capacity B
  }
  config.cluster.network.serverLinkNoiseSigmaLog = 0.0;
  for (auto& host : config.cluster.hosts) {
    host.serviceCap = 0.0;  // no OSS cap
    for (auto& target : host.targets) {
      target.device.perDiskStream = 1e5;
      target.device.cacheFraction = 1.0;  // no ramp:
      target.device.cacheQHalf = 0.0;     // full rate at any queue depth
      target.variability = topo::VariabilitySpec{};
    }
  }
  config.fs.client.rampTau = 0.0;  // no client ramp-up
  config.noise = harness::NoiseSpec{0.0, 0.0};
  config.pinnedTargets = std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7};
  // Bandwidth of the I/O phase alone: the create/open phase before it is
  // not network time.
  const auto ior = harness::runOnce(config, 1).ior;
  return util::bandwidth(ior.totalBytes, ior.end - ior.start - ior.metaTime);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  const double linkB = topo::PlafrimCalibration{}.s1ServerLink;
  constexpr std::size_t kServers = 2;

  util::TableWriter table({"N nodes", "analytic B*min(N,M)", "fluid model", "diff %"});
  core::CheckList checks("Fig. 3 -- network bound model");

  for (const std::size_t nodes : {1u, 2u, 3u, 4u, 8u}) {
    const double analytic = core::networkBound(nodes, kServers, linkB);
    const double fluid = fluidNetworkBound(nodes);
    table.addRow({std::to_string(nodes), util::fmt(analytic, 1), util::fmt(fluid, 1),
                  util::fmt(100.0 * (fluid - analytic) / analytic, 2)});
    checks.expectNear("fluid matches analytic at N=" + std::to_string(nodes), fluid,
                      analytic, 0.02);
  }
  bench::printFigure("Fig. 3: network bound, M=2 servers, B=" + util::formatBandwidth(linkB),
                     table);

  checks.expect("bound is flat for N >= M",
                core::networkBound(2, kServers, linkB) == core::networkBound(8, kServers, linkB),
                "B*min(N,M) saturates at N=M");
  return bench::finish(checks);
}

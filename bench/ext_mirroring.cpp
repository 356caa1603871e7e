// Extension: storage buddy-mirroring vs. OST allocation.
//
// The paper's system runs unmirrored; this bench asks what synchronous
// cross-host replication costs each allocation class, and what it buys when
// an OSS crashes mid-run.  Sweep: four placement classes x {unmirrored,
// mirrored} x {healthy, crash of host 1 with a short outage, same crash
// with a long outage}, in both scenarios.  Mirrored placements pin the
// stripe to the groups' primaries; every group spans both hosts.
//
// Expected shape: while healthy, placements whose replicas land on an
// otherwise-idle host replicate for (almost) free, and a balanced placement
// pays the full price -- about half the unmirrored bandwidth, since every
// link/disk now carries a second copy.  Under the crash, mirroring turns
// the degraded-stripe rewrite storm into clean failovers: zero bytes lost,
// nothing rewritten, and once the host returns the background resync
// streams back exactly the delta accrued while degraded -- so both the
// resynced bytes and the resync time grow with the outage.
#include <map>

#include "bench/common.hpp"
#include "faults/schedule.hpp"
#include "stats/summary.hpp"

using namespace beesim;

namespace {

double meanOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : stats::summarize(values).mean;
}

struct Placement {
  std::vector<std::size_t> unmirrored;  // pinned targets for the plain run
  std::vector<std::size_t> primaries;   // pinned targets for the mirrored run
  std::vector<std::pair<std::size_t, std::size_t>> groups;
};

}  // namespace

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  // Host 0 serves targets 0..3, host 1 (the one that crashes) 4..7.  Every
  // mirror group pairs one target per host; the mirrored placement writes to
  // the primaries and lets the secondaries absorb the replica stream.
  const std::map<std::string, Placement> placements{
      {"(0,4)live",
       {{0, 1, 2, 3}, {0, 1, 2, 3}, {{0, 4}, {1, 5}, {2, 6}, {3, 7}}}},
      {"(0,4)dead",
       {{4, 5, 6, 7}, {4, 5, 6, 7}, {{4, 0}, {5, 1}, {6, 2}, {7, 3}}}},
      {"(2,2)", {{0, 1, 4, 5}, {0, 1, 4, 5}, {{0, 6}, {1, 7}, {4, 2}, {5, 3}}}},
      {"(4,4)",
       {{0, 1, 2, 3, 4, 5, 6, 7}, {0, 5, 2, 7}, {{0, 4}, {5, 1}, {2, 6}, {7, 3}}}},
  };
  struct ScenarioSpec {
    topo::Scenario scenario;
    const char* label;
    double crash;    // well inside every placement's run
    double shortOn;  // host 1 returns quickly ...
    double longOn;   // ... or after a long outage (more resync debt)
  };
  const std::vector<ScenarioSpec> scenarios{
      {topo::Scenario::kEthernet10G, "1", 5.0, 8.0, 14.0},
      {topo::Scenario::kOmniPath100G, "2", 4.0, 6.0, 10.0},
  };
  // Segmented writes (IOR -s), as in ext_failures: only the in-flight
  // segment is exposed to a failure, not the whole file.
  constexpr int kSegments = 32;

  std::vector<harness::CampaignEntry> entries;
  for (const auto& spec : scenarios) {
    for (const auto& [key, placement] : placements) {
      for (const bool mirrored : {false, true}) {
        for (const std::string fault : {"none", "short", "long"}) {
          const auto& targets = mirrored ? placement.primaries : placement.unmirrored;
          harness::CampaignEntry entry;
          entry.config = bench::plafrimRun(spec.scenario, 8, 8,
                                           static_cast<unsigned>(targets.size()));
          entry.config.ior.blockSize /= kSegments;
          entry.config.ior.segments = kSegments;
          entry.config.pinnedTargets = targets;
          if (mirrored) {
            entry.config.fs.mirror.enabled = true;
            entry.config.fs.mirror.groups = placement.groups;
            entry.config.fs.defaultStripe.mirror = true;
          }
          if (fault != "none") {
            const double on = fault == "short" ? spec.shortOn : spec.longOn;
            entry.config.faults.schedule = faults::parseSchedule(
                "off:h1@" + util::fmt(spec.crash, 1) + ";on:h1@" + util::fmt(on, 1));
            // Tuned client: mirrored chunks never consult the watchdog --
            // the registry flip is the switchover signal -- but the plain
            // baseline needs it.
            entry.config.fs.faults = bench::tunedClient();
          }
          entry.factors["scenario"] = spec.label;
          entry.factors["alloc"] = key;
          entry.factors["mirror"] = mirrored ? "on" : "off";
          entry.factors["fault"] = fault;
          entries.push_back(std::move(entry));
        }
      }
    }
  }
  const auto store = harness::executeCampaign(
      entries, bench::protocolOptions(), 211, nullptr, bench::executorOptions("ext_mirroring"));

  const auto metric = [&](const std::string& name, const std::string& sc,
                          const std::string& alloc, const std::string& mirror,
                          const std::string& fault) {
    return meanOf(store.metric(name, {{"scenario", sc},
                                      {"alloc", alloc},
                                      {"mirror", mirror},
                                      {"fault", fault}}));
  };
  const auto bw = [&](const std::string& sc, const std::string& alloc,
                      const std::string& mirror, const std::string& fault) {
    return metric("bandwidth_mibps", sc, alloc, mirror, fault);
  };

  util::TableWriter table({"scenario", "alloc", "mirror", "fault", "bandwidth",
                           "failovers", "replica MiB", "lost MiB", "resyncs",
                           "resync MiB", "resync s"});
  for (const auto& spec : scenarios) {
    for (const auto& [key, placement] : placements) {
      for (const std::string mirror : {"off", "on"}) {
        for (const std::string fault : {"none", "short", "long"}) {
          const bool on = mirror == "on";
          table.addRow(
              {spec.label, key, mirror, fault,
               util::fmt(bw(spec.label, key, mirror, fault), 1),
               on ? util::fmt(metric("mirror_failovers", spec.label, key, mirror, fault), 2)
                  : "-",
               on ? util::fmt(metric("mirror_replica_mib", spec.label, key, mirror, fault), 1)
                  : "-",
               on ? util::fmt(metric("mirror_lost_mib", spec.label, key, mirror, fault), 1)
                  : "-",
               on ? util::fmt(metric("resync_jobs", spec.label, key, mirror, fault), 2)
                  : "-",
               on ? util::fmt(metric("resync_mib", spec.label, key, mirror, fault), 1)
                  : "-",
               on ? util::fmt(metric("resync_seconds", spec.label, key, mirror, fault), 2)
                  : "-"});
        }
      }
    }
  }
  bench::printFigure("Ext: buddy mirroring vs allocation (8 nodes x 8 ppn)", table);
  store.writeCsv(bench::resultsPath("ext_mirroring.csv"));

  const double totalMiB = util::toMiB(bench::kTotalData);
  core::CheckList checks("Ext -- synchronous mirroring, failover and resync");
  for (const auto& spec : scenarios) {
    const std::string sc = spec.label;
    const std::string tag = " [S" + sc + "]";

    // -- Healthy: replication cost by placement. --------------------------
    // A balanced placement pushes the second copy through the same links
    // and disks as the first: about half the unmirrored bandwidth.
    checks.expectRatio("healthy (4,4) mirrored ~ half of unmirrored" + tag,
                       bw(sc, "(4,4)", "on", "none"), bw(sc, "(4,4)", "off", "none"), 0.5,
                       0.15);
    if (sc == "1") {
      // Link-bound only: with disks to spare, (2,2)'s replicas ride the
      // idle OSTs instead (checked below); on 10G both NICs saturate.
      checks.expectRatio("healthy (2,2) mirrored ~ half of unmirrored" + tag,
                         bw(sc, "(2,2)", "on", "none"), bw(sc, "(2,2)", "off", "none"),
                         0.5, 0.10);
    } else {
      checks.expectNear("healthy (2,2) replicas ride the idle disks" + tag,
                        bw(sc, "(2,2)", "on", "none"), bw(sc, "(2,2)", "off", "none"),
                        0.15);
    }
    // Replicating into an otherwise-idle host is (nearly) free.
    checks.expectNear("healthy (0,4)live mirrors for ~free" + tag,
                      bw(sc, "(0,4)live", "on", "none"), bw(sc, "(0,4)live", "off", "none"),
                      0.15);
    // Every healthy mirrored run replicates every byte before acking.
    double replicated = 0.0;
    double healthyFailovers = 0.0;
    double healthyResyncs = 0.0;
    for (const auto& [key, placement] : placements) {
      replicated += metric("mirror_replica_mib", sc, key, "on", "none");
      healthyFailovers += metric("mirror_failovers", sc, key, "on", "none");
      healthyResyncs += metric("resync_jobs", sc, key, "on", "none");
    }
    checks.expectNear("healthy runs replicate every byte" + tag, replicated, 4 * totalMiB,
                      1e-9);
    checks.expect("healthy runs never fail over or resync" + tag,
                  healthyFailovers == 0.0 && healthyResyncs == 0.0,
                  util::fmt(healthyFailovers + healthyResyncs, 2));

    // -- Crash: failover without loss. ------------------------------------
    double lost = 0.0;
    double rewritten = 0.0;
    double aborted = 0.0;
    for (const auto& [key, placement] : placements) {
      for (const std::string fault : {"short", "long"}) {
        lost += metric("mirror_lost_mib", sc, key, "on", fault);
        rewritten += metric("fault_rewritten_mib", sc, key, "on", fault);
        aborted += metric("fault_aborted", sc, key, "on", fault);
      }
    }
    checks.expect("failover loses zero bytes" + tag, lost == 0.0, util::fmt(lost, 1));
    checks.expect("mirrored crashes rewrite nothing" + tag, rewritten == 0.0,
                  util::fmt(rewritten, 1));
    checks.expect("no mirrored run aborts" + tag, aborted == 0.0, util::fmt(aborted, 0));
    // Failover engages exactly where the primaries died.
    checks.expect("(0,4)dead fails over every group" + tag,
                  metric("mirror_failovers", sc, "(0,4)dead", "on", "short") == 4.0,
                  util::fmt(metric("mirror_failovers", sc, "(0,4)dead", "on", "short"), 2));
    checks.expect("(0,4)live keeps its primaries" + tag,
                  metric("mirror_failovers", sc, "(0,4)live", "on", "short") == 0.0,
                  util::fmt(metric("mirror_failovers", sc, "(0,4)live", "on", "short"), 2));

    // -- Resync: the delta grows with the outage, and so does the stream. --
    for (const std::string key : {"(4,4)", "(0,4)live"}) {
      checks.expectGreater("longer outage owes more resync: " + key + tag,
                           metric("resync_mib", sc, key, "on", "long"),
                           metric("resync_mib", sc, key, "on", "short"));
      checks.expectGreater("resync time monotone in the delta: " + key + tag,
                           metric("resync_seconds", sc, key, "on", "long"),
                           metric("resync_seconds", sc, key, "on", "short"));
    }
  }
  return bench::finish(checks);
}

// Extension: mid-run storage-server failure vs. OST allocation.
//
// The paper studies allocations on a healthy system; this bench asks how the
// allocation classes rank when one OSS crashes mid-run and the clients fall
// back to degraded-stripe failover (timeout -> retry -> re-route to a
// surviving target, re-sending the interrupted chunks).  Sweep: four
// placement classes x {healthy, early crash, late crash} of storage host 1,
// in both scenarios.
//
// Expected shape: placements confined to the surviving host don't notice;
// placements using the failed host pay a detection+rewrite penalty but
// complete; a balanced allocation degrades gracefully -- it stays at or
// above the paper's single-server floor, which is what a whole run on one
// healthy server achieves.
#include <map>

#include "bench/common.hpp"
#include "faults/schedule.hpp"
#include "stats/summary.hpp"

using namespace beesim;

namespace {

double meanOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : stats::summarize(values).mean;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  // Two single-server placements (one per host) so the same (0,4) class is
  // observed both surviving and dying; (2,2) and (4,4) span both hosts.
  const std::map<std::string, std::vector<std::size_t>> placements{
      {"(0,4)live", {0, 1, 2, 3}},   // single server, the host that survives
      {"(0,4)dead", {4, 5, 6, 7}},   // single server, the host that crashes
      {"(2,2)", {0, 1, 4, 5}},
      {"(4,4)", {0, 1, 2, 3, 4, 5, 6, 7}},
  };
  struct ScenarioSpec {
    topo::Scenario scenario;
    const char* label;
    double early;  // crash time well inside every placement's run
    double late;   // crash time still inside the fastest placement's run
  };
  const std::vector<ScenarioSpec> scenarios{
      {topo::Scenario::kEthernet10G, "1", 5.0, 11.0},
      {topo::Scenario::kOmniPath100G, "2", 4.0, 7.0},
  };
  // Segmented writes (IOR -s): each rank moves its 512 MiB as 32 sequential
  // segments, so a crash can only claw back the in-flight segment -- with one
  // giant segment the whole file is in flight and any failure rewrites all of
  // it, drowning the allocation effect this bench is after.
  constexpr int kSegments = 32;

  std::vector<harness::CampaignEntry> entries;
  for (const auto& spec : scenarios) {
    for (const auto& [key, targets] : placements) {
      for (const std::string fault : {"none", "early", "late"}) {
        harness::CampaignEntry entry;
        entry.config = bench::plafrimRun(spec.scenario, 8, 8,
                                         static_cast<unsigned>(targets.size()));
        entry.config.ior.blockSize /= kSegments;
        entry.config.ior.segments = kSegments;
        entry.config.pinnedTargets = targets;
        if (fault != "none") {
          const double at = fault == "early" ? spec.early : spec.late;
          entry.config.faults.schedule =
              faults::parseSchedule("off:h1@" + util::fmt(at, 1));
          entry.config.fs.faults = bench::tunedClient();
        }
        entry.factors["scenario"] = spec.label;
        entry.factors["alloc"] = key;
        entry.factors["fault"] = fault;
        entries.push_back(std::move(entry));
      }
    }
  }
  const auto store = harness::executeCampaign(entries, bench::protocolOptions(), 211,
                                              nullptr, bench::executorOptions("ext_failures"));

  // mean bandwidth / failovers / rewritten MiB per (scenario, alloc, fault).
  const auto bw = [&](const std::string& sc, const std::string& alloc,
                      const std::string& fault) {
    return meanOf(store.metric("bandwidth_mibps",
                               {{"scenario", sc}, {"alloc", alloc}, {"fault", fault}}));
  };
  const auto faultMetric = [&](const std::string& name, const std::string& sc,
                               const std::string& alloc, const std::string& fault) {
    return meanOf(
        store.metric(name, {{"scenario", sc}, {"alloc", alloc}, {"fault", fault}}));
  };

  util::TableWriter table({"scenario", "alloc", "fault", "bandwidth", "failovers",
                           "rewritten MiB", "degraded s", "aborted"});
  for (const auto& spec : scenarios) {
    for (const auto& [key, targets] : placements) {
      for (const std::string fault : {"none", "early", "late"}) {
        const bool faulty = fault != "none";
        table.addRow({spec.label, key, fault, util::fmt(bw(spec.label, key, fault), 1),
                      faulty ? util::fmt(faultMetric("fault_failovers", spec.label, key,
                                                     fault), 2)
                             : "-",
                      faulty ? util::fmt(faultMetric("fault_rewritten_mib", spec.label,
                                                     key, fault), 1)
                             : "-",
                      faulty ? util::fmt(faultMetric("fault_degraded_seconds", spec.label,
                                                     key, fault), 2)
                             : "-",
                      faulty ? util::fmt(faultMetric("fault_aborted", spec.label, key,
                                                     fault), 2)
                             : "-"});
      }
    }
  }
  bench::printFigure("Ext: OSS crash mid-run vs allocation (8 nodes x 8 ppn)", table);
  store.writeCsv(bench::resultsPath("ext_failures.csv"));

  core::CheckList checks("Ext -- degraded-stripe failover under an OSS crash");
  for (const auto& spec : scenarios) {
    const std::string sc = spec.label;
    const std::string tag = " [S" + sc + "]";
    // Degraded mode keeps every job alive: a surviving target always exists.
    double aborts = 0.0;
    for (const auto& [key, targets] : placements) {
      for (const std::string fault : {"early", "late"}) {
        aborts += faultMetric("fault_aborted", sc, key, fault);
      }
    }
    checks.expect("no degraded run aborts" + tag, aborts == 0.0, util::fmt(aborts, 0));
    // Failover engages exactly for the placements that use the dead host.
    checks.expect("failovers hit host-1 users" + tag,
                  faultMetric("fault_failovers", sc, "(0,4)dead", "early") > 0.0 &&
                      faultMetric("fault_failovers", sc, "(2,2)", "early") > 0.0 &&
                      faultMetric("fault_failovers", sc, "(4,4)", "early") > 0.0,
                  util::fmt(faultMetric("fault_failovers", sc, "(4,4)", "early"), 2));
    checks.expect("surviving-host placement unaffected" + tag,
                  faultMetric("fault_failovers", sc, "(0,4)live", "early") == 0.0,
                  util::fmt(faultMetric("fault_failovers", sc, "(0,4)live", "early"), 2));
    checks.expectNear("(0,4)live bandwidth ignores the crash" + tag,
                      bw(sc, "(0,4)live", "early"), bw(sc, "(0,4)live", "none"), 0.05);
    // Acceptance: a balanced allocation degrades gracefully -- it loses no
    // more than the single-server floor a healthy (0,4) run lives at.
    checks.expectGreater("degraded (4,4) >= healthy single-server floor" + tag,
                         bw(sc, "(4,4)", "early"), bw(sc, "(0,4)live", "none"));
    checks.expectGreater("degraded (4,4) > degraded (0,4)dead" + tag,
                         bw(sc, "(4,4)", "early"), bw(sc, "(0,4)dead", "early"));
    checks.expectGreater("crash costs bandwidth: healthy (4,4) > degraded" + tag,
                         bw(sc, "(4,4)", "none"), bw(sc, "(4,4)", "early"));
    checks.expectGreater("later crash hurts less" + tag, bw(sc, "(4,4)", "late"),
                         bw(sc, "(4,4)", "early"));
    // The dying single-server placement re-sends every in-flight chunk; the
    // balanced one only those striped onto the dead half.
    checks.expectGreater("rewrites: (0,4)dead > (4,4)" + tag,
                         faultMetric("fault_rewritten_mib", sc, "(0,4)dead", "early"),
                         faultMetric("fault_rewritten_mib", sc, "(4,4)", "early"));
  }
  return bench::finish(checks);
}

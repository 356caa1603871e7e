// Extension: gray failures -- fail-slow injection, peer-relative detection,
// and hedged-write mitigation (DESIGN.md §2.9).
//
// Crash faults are the *easy* case: the registry flips, the client watchdog
// fires, degraded-stripe failover re-routes.  A fail-slow OST -- serving at
// 5% of its rate while staying registered online -- defeats all of that
// machinery: nothing times out, nothing fails over, and the whole run crawls
// behind the sickest slot.  This bench quantifies the gray-failure tax and
// the recovery the mitigation stack buys, across the paper's allocation
// classes and both scenarios:
//
//   * alloc part: {healthy, gray, crash, mitigated} x {(1,3),(2,2),(4,4)}.
//     gray: target 4 (host 1) fail-slows to 5% permanently, nothing detects
//     it.  crash: the *entire* host 1 crashes instead (tuned client,
//     degraded-stripe failover).  mitigated: same gray fault, but hedged
//     writes re-issue lagging chunks and the health monitor watches peers;
//     QoS rides along to prove the token-conservation property under
//     hedging.  The headline check: one undetected fail-slow target costs
//     more bandwidth than losing the whole server -- and the mitigation
//     stack recovers >= 0.85x healthy on the balanced allocation (S1).
//
//   * detect part: host 1's *link* stutters to 8% (a host-wide gray
//     failure).  A monitor-only arm shows the peer-relative score
//     quarantining the host in every rep, and a hedged arm shows the
//     mitigation beating the undetected run.
//
//   * identity part: a feature-off campaign is executed serial and parallel
//     and the two CSVs must match byte for byte (the detector/hedge master
//     switches leave legacy runs untouched).
#include <fstream>
#include <map>
#include <sstream>

#include "bench/common.hpp"
#include "control/health.hpp"
#include "faults/schedule.hpp"
#include "stats/summary.hpp"

using namespace beesim;

namespace {

double meanOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : stats::summarize(values).mean;
}

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  // Segmented writes (IOR -s), as in ext_failures/ext_rebalance: a rank's
  // data moves as 32 sequential blocks, so a re-homed (hedged) slot actually
  // carries the later segments and a crash only claws back in-flight ones.
  constexpr int kSegments = 32;
  // 16 GiB total: long enough that detection (~1 s) and hedging (~0.5 s
  // deadline) are small against the run, short enough that the 20x crawl of
  // the undetected gray runs stays tractable.
  constexpr util::Bytes kTotal = 16ULL * util::kGiB;

  const std::map<std::string, std::vector<std::size_t>> placements{
      {"(1,3)", {0, 4, 5, 6}},
      {"(2,2)", {0, 1, 4, 5}},
      {"(4,4)", {0, 1, 2, 3, 4, 5, 6, 7}},
  };
  struct ScenarioSpec {
    topo::Scenario scenario;
    const char* label;
    double onset;  // fault time: past ramp-up, well inside every run
  };
  const std::vector<ScenarioSpec> scenarios{
      {topo::Scenario::kEthernet10G, "1", 2.0},
      {topo::Scenario::kOmniPath100G, "2", 1.0},
  };

  const auto mitigation = [](harness::RunConfig& config) {
    config.fs.hedge.enabled = true;
    config.fs.hedge.deadline = 0.5;
    config.health.enabled = true;   // defaults: ratio 0.5, patience 1 s
    config.qos.enabled = true;      // generous: proves charge-once, no throttle
    config.qos.rate = 100000.0;
  };

  std::vector<harness::CampaignEntry> entries;
  for (const auto& spec : scenarios) {
    for (const auto& [key, targets] : placements) {
      for (const std::string variant : {"healthy", "gray", "crash", "mitigated"}) {
        harness::CampaignEntry entry;
        entry.config = bench::plafrimRun(spec.scenario, 8, 8,
                                         static_cast<unsigned>(targets.size()), kTotal);
        entry.config.ior.blockSize /= kSegments;
        entry.config.ior.segments = kSegments;
        entry.config.pinnedTargets = targets;
        const std::string at = util::fmt(spec.onset, 1);
        if (variant == "gray" || variant == "mitigated") {
          // Permanent single-target fail-slow: dead enough to wreck the run,
          // alive enough that the undetected variant still terminates.
          entry.config.faults.schedule = faults::parseSchedule("slow:t4@" + at + "=0.05");
        } else if (variant == "crash") {
          entry.config.faults.schedule = faults::parseSchedule("off:h1@" + at);
          entry.config.fs.faults = bench::tunedClient();
        }
        if (variant == "mitigated") mitigation(entry.config);
        entry.factors["part"] = "alloc";
        entry.factors["scenario"] = spec.label;
        entry.factors["alloc"] = key;
        entry.factors["variant"] = variant;
        entries.push_back(std::move(entry));
      }
    }
  }
  // Detection part (S1): a host-wide link stutter, the gray failure the
  // peer-relative score exists for.  Three arms: "monitored" runs the
  // detector alone, so the stuttering host stays busy (its flows crawl but
  // never leave) and the quarantine lands deterministically; "mitigated"
  // adds hedging, where winning hedges evacuate the sick host -- an idle
  // host has no busy samples to score, so detection there races the drain
  // and the quarantine count is best-effort.  The detector checks anchor on
  // the monitored arm, the bandwidth check on the mitigated one.
  for (const std::string variant : {"undetected", "monitored", "mitigated"}) {
    harness::CampaignEntry entry;
    entry.config = bench::plafrimRun(topo::Scenario::kEthernet10G, 8, 8, 8, kTotal);
    entry.config.ior.blockSize /= kSegments;
    entry.config.ior.segments = kSegments;
    entry.config.pinnedTargets = std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7};
    entry.config.faults.schedule = faults::parseSchedule("link:h1@2.0=0.08");
    if (variant == "monitored") {
      entry.config.health.enabled = true;  // defaults: ratio 0.5, patience 1 s
    } else if (variant == "mitigated") {
      mitigation(entry.config);
    }
    entry.factors["part"] = "detect";
    entry.factors["scenario"] = "1";
    entry.factors["alloc"] = "(4,4)";
    entry.factors["variant"] = variant;
    entries.push_back(std::move(entry));
  }

  const auto store = harness::executeCampaign(entries, bench::protocolOptions(), 431,
                                              nullptr,
                                              bench::executorOptions("ext_failslow"));
  store.writeCsv(bench::resultsPath("ext_failslow.csv"));

  const auto metric = [&](const std::string& name, const std::string& part,
                          const std::string& sc, const std::string& alloc,
                          const std::string& variant) {
    return meanOf(store.metric(name, {{"part", part},
                                      {"scenario", sc},
                                      {"alloc", alloc},
                                      {"variant", variant}}));
  };
  const auto bw = [&](const std::string& sc, const std::string& alloc,
                      const std::string& variant) {
    return metric("bandwidth_mibps", "alloc", sc, alloc, variant);
  };

  util::TableWriter table({"part", "scenario", "alloc", "variant", "bandwidth",
                           "hedges", "hedge wins", "quarantines"});
  for (const auto& entry : entries) {
    const auto part = entry.factors.at("part");
    const auto sc = entry.factors.at("scenario");
    const auto alloc = entry.factors.at("alloc");
    const auto variant = entry.factors.at("variant");
    const bool hedged = entry.config.fs.hedge.enabled;
    const bool monitored = entry.config.health.enabled;
    table.addRow(
        {part, sc, alloc, variant,
         util::fmt(metric("bandwidth_mibps", part, sc, alloc, variant), 1),
         hedged ? util::fmt(metric("hedge_issued", part, sc, alloc, variant), 2) : "-",
         hedged ? util::fmt(metric("hedge_wins", part, sc, alloc, variant), 2) : "-",
         monitored ? util::fmt(metric("gray_quarantines", part, sc, alloc, variant), 2)
                   : "-"});
  }
  bench::printFigure("Ext: gray failures -- fail-slow vs crash vs mitigation (8x8)",
                     table);

  core::CheckList checks("Ext -- gray-failure robustness");
  for (const auto& spec : scenarios) {
    const std::string sc = spec.label;
    const std::string tag = " [S" + sc + "]";
    for (const auto& [key, targets] : placements) {
      // (a) The headline: one *undetected* fail-slow target costs more than
      // losing the entire server to a clean crash.
      checks.expectGreater("undetected fail-slow worse than host crash, " + key + tag,
                           bw(sc, key, "crash"), bw(sc, key, "gray"));
      // Mitigation always pays for itself against the undetected run.
      checks.expectGreater("mitigation beats undetected gray, " + key + tag,
                           bw(sc, key, "mitigated"), bw(sc, key, "gray"));
    }
    // Hedges actually engage and win on the mitigated runs.
    checks.expectGreater("hedges engage on mitigated (4,4)" + tag,
                         metric("hedge_issued", "alloc", sc, "(4,4)", "mitigated"),
                         0.999);
    checks.expectGreater("hedges win on mitigated (4,4)" + tag,
                         metric("hedge_wins", "alloc", sc, "(4,4)", "mitigated"), 0.999);
    // (c) Token conservation under hedging: every logical MiB charged
    // exactly once, duplicate hedge legs never re-admitted.
    const double issued = metric("qos_issued_mib", "alloc", sc, "(4,4)", "mitigated");
    const double planned = static_cast<double>(kTotal) / static_cast<double>(util::kMiB);
    checks.expect("QoS charges each logical MiB once under hedging" + tag,
                  issued == planned,
                  util::fmt(issued, 3) + " MiB issued vs " + util::fmt(planned, 3) +
                      " planned");
  }
  // (b) Acceptance: on the balanced allocation in Scenario 1 (server links
  // the bottleneck, the paper's allocation-sensitive case) the mitigation
  // stack recovers at least 0.85x the healthy bandwidth.
  checks.expectGreater("mitigated (4,4) >= 0.85 x healthy [S1]",
                       bw("1", "(4,4)", "mitigated"), 0.85 * bw("1", "(4,4)", "healthy"));
  checks.expectGreater("mitigated (2,2) >= 0.85 x healthy [S1]",
                       bw("1", "(2,2)", "mitigated"), 0.85 * bw("1", "(2,2)", "healthy"));

  // Detection part: the peer-relative monitor quarantines the stuttering
  // host (monitor-only arm: nothing evacuates the host, so every rep must
  // catch it) and the steered hedges beat the undetected run.
  checks.expectGreater("host-wide stutter is quarantined",
                       metric("gray_quarantines", "detect", "1", "(4,4)", "monitored"),
                       0.999);
  checks.expectGreater("suspects precede the quarantine",
                       metric("gray_suspects", "detect", "1", "(4,4)", "monitored"),
                       0.999);
  checks.expectGreater("detection + hedging beats the undetected stutter",
                       metric("bandwidth_mibps", "detect", "1", "(4,4)", "mitigated"),
                       metric("bandwidth_mibps", "detect", "1", "(4,4)", "undetected"));

  // (d) Feature-off byte identity: the same feature-off campaign executed
  // serial and parallel writes byte-identical CSVs (master switches off =
  // nothing constructed = legacy bytes; also the --jobs contract).
  {
    harness::CampaignEntry off;
    off.config = bench::plafrimRun(topo::Scenario::kEthernet10G, 8, 8, 8, 4 * util::kGiB);
    off.config.fs.hedge = beegfs::HedgePolicy{};   // explicitly off
    off.config.health = control::HealthPolicy{};   // explicitly off
    off.factors["part"] = "identity";
    harness::ProtocolOptions protocol;
    protocol.repetitions = 5;
    harness::ExecutorOptions serial;
    serial.jobs = 1;
    harness::ExecutorOptions parallel;
    parallel.jobs = 4;
    const auto a = harness::executeCampaign({off}, protocol, 431, nullptr, serial);
    const auto b = harness::executeCampaign({off}, protocol, 431, nullptr, parallel);
    const auto pathA = bench::resultsPath("ext_failslow_identity_serial.csv");
    const auto pathB = bench::resultsPath("ext_failslow_identity_parallel.csv");
    a.writeCsv(pathA);
    b.writeCsv(pathB);
    const auto bytesA = slurp(pathA);
    const auto bytesB = slurp(pathB);
    checks.expect("feature-off campaign CSVs are byte-identical",
                  !bytesA.empty() && bytesA == bytesB,
                  util::fmt(static_cast<double>(bytesA.size()), 0) + " bytes");
  }

  bench::writeReport(
      "failslow", store,
      {{"gray_over_crash_s1_44", bw("1", "(4,4)", "gray") / bw("1", "(4,4)", "crash")},
       {"gray_over_crash_s2_44", bw("2", "(4,4)", "gray") / bw("2", "(4,4)", "crash")},
       {"mitigated_over_healthy_s1_44",
        bw("1", "(4,4)", "mitigated") / bw("1", "(4,4)", "healthy")},
       {"mitigated_over_undetected_stutter",
        metric("bandwidth_mibps", "detect", "1", "(4,4)", "mitigated") /
            metric("bandwidth_mibps", "detect", "1", "(4,4)", "undetected")}});
  return bench::finish(checks);
}

// Extension: closed-loop rebalancing vs. static allocation (DESIGN.md §2.6).
//
// The paper establishes that skewed (min,max) allocations cost bandwidth and
// recommends choosing balanced placements up front (Lesson #4).  This bench
// asks the follow-up question: when a run *starts* skewed -- a bad initial
// allocation, or a failover that piled every chunk onto the survivors -- can
// a controller that watches the live per-server rates claw the bandwidth
// back?  Two scenarios, both Scenario 1 (10 GbE, server links are the
// bottleneck), 8 nodes x 8 ppn, segmented writes so re-homed slots matter:
//
//   * skew: a stripe-4 file pinned to the paper's (1,3) split.  The
//     controller sees imbalance 1.5, engages, and migrates one slot from the
//     hot host to the cold one -- the effective allocation becomes (2,2).
//     Checks: recovered bandwidth within 10% of a static (2,2) run, above
//     the static (1,3) run, and above what the deployed round-robin or
//     random choosers average at stripe count 4.
//
//   * failover: a stripe-8 (4,4) file, host 0 crashes at 2 s and reboots at
//     3.5 s.  Degraded-stripe failover re-homes host-0 slots onto host-1
//     targets and those substitutes are sticky: without the controller the
//     run stays single-hosted after the reboot.  The controller migrates the
//     slots back.  Checks: beats the uncontrolled faulty run and lands
//     within 10% of the no-fault bandwidth.
#include <map>

#include "bench/common.hpp"
#include "control/rebalance.hpp"
#include "faults/schedule.hpp"
#include "stats/summary.hpp"

using namespace beesim;

namespace {

double meanOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : stats::summarize(values).mean;
}

/// Controller tuning: the CLI defaults except for the migration-stream cap.
/// The skew scenario needs to move one slot, so one stream at a time avoids
/// overshooting past balance; the failover scenario must re-home four slots
/// and each re-route only ships 1/8 of the traffic, so four streams converge
/// in a few samples without risk of flapping.
control::RebalancePolicy benchPolicy(int maxConcurrentMigrations) {
  control::RebalancePolicy policy;
  policy.enabled = true;
  policy.maxConcurrentMigrations = maxConcurrentMigrations;
  return policy;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  // Segmented writes (IOR -s): a rank's data moves as 32 sequential blocks,
  // so traffic issued after a slot is re-homed actually follows it.  With
  // one giant block every flow is in flight before the controller's first
  // sample and migration could not help.
  constexpr int kSegments = 32;

  std::vector<harness::CampaignEntry> entries;
  const auto push = [&](const std::string& part, const std::string& config,
                        const std::string& ctl, harness::CampaignEntry entry) {
    entry.factors["part"] = part;
    entry.factors["config"] = config;
    entry.factors["ctl"] = ctl;
    entries.push_back(std::move(entry));
  };
  const auto skewRun = [&](unsigned stripe) {
    harness::CampaignEntry entry;
    entry.config = bench::plafrimRun(topo::Scenario::kEthernet10G, 8, 8, stripe);
    entry.config.ior.blockSize /= kSegments;
    entry.config.ior.segments = kSegments;
    return entry;
  };

  // -- Part 1: skewed initial allocation. ---------------------------------
  {
    harness::CampaignEntry entry = skewRun(4);
    entry.config.pinnedTargets = std::vector<std::size_t>{0, 1, 4, 5};
    push("skew", "(2,2)", "off", std::move(entry));
  }
  {
    harness::CampaignEntry entry = skewRun(4);
    entry.config.pinnedTargets = std::vector<std::size_t>{0, 4, 5, 6};
    push("skew", "(1,3)", "off", std::move(entry));
  }
  {
    harness::CampaignEntry entry = skewRun(4);
    entry.config.pinnedTargets = std::vector<std::size_t>{0, 4, 5, 6};
    entry.config.rebalance = benchPolicy(1);
    push("skew", "(1,3)", "on", std::move(entry));
  }
  {
    harness::CampaignEntry entry = skewRun(4);
    entry.config.fs.chooser = beegfs::ChooserKind::kRoundRobin;
    push("skew", "rr", "off", std::move(entry));
  }
  {
    harness::CampaignEntry entry = skewRun(4);
    entry.config.fs.chooser = beegfs::ChooserKind::kRandom;
    push("skew", "random", "off", std::move(entry));
  }

  // -- Part 2: transient OSS crash leaves sticky substitutes. -------------
  const auto failoverRun = [&](bool fault, bool ctl) {
    harness::CampaignEntry entry = skewRun(8);
    entry.config.pinnedTargets = std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7};
    if (fault) {
      entry.config.faults.schedule = faults::parseSchedule("off:h0@2.0;on:h0@3.5");
      entry.config.fs.faults = bench::tunedClient();
    }
    if (ctl) entry.config.rebalance = benchPolicy(4);
    return entry;
  };
  push("failover", "none", "off", failoverRun(false, false));
  push("failover", "fault", "off", failoverRun(true, false));
  push("failover", "fault", "on", failoverRun(true, true));

  const auto store = harness::executeCampaign(entries, bench::protocolOptions(), 271,
                                              nullptr,
                                              bench::executorOptions("ext_rebalance"));
  store.writeCsv(bench::resultsPath("ext_rebalance.csv"));

  const auto metric = [&](const std::string& name, const std::string& part,
                          const std::string& config, const std::string& ctl) {
    return meanOf(store.metric(
        name, {{"part", part}, {"config", config}, {"ctl", ctl}}));
  };
  const auto bw = [&](const std::string& part, const std::string& config,
                      const std::string& ctl) {
    return metric("bandwidth_mibps", part, config, ctl);
  };

  util::TableWriter table({"part", "config", "ctl", "bandwidth", "triggers",
                           "migrations", "migrated MiB", "peak imbalance"});
  for (const auto& entry : entries) {
    const auto part = entry.factors.at("part");
    const auto config = entry.factors.at("config");
    const auto ctl = entry.factors.at("ctl");
    const bool on = ctl == "on";
    table.addRow(
        {part, config, ctl, util::fmt(bw(part, config, ctl), 1),
         on ? util::fmt(metric("rebal_triggers", part, config, ctl), 2) : "-",
         on ? util::fmt(metric("rebal_migrations", part, config, ctl), 2) : "-",
         on ? util::fmt(metric("rebal_migrated_mib", part, config, ctl), 1) : "-",
         on ? util::fmt(metric("rebal_peak_imbalance", part, config, ctl), 3) : "-"});
  }
  bench::printFigure("Ext: closed-loop rebalancing vs static allocation (S1, 8x8)",
                     table);

  core::CheckList checks("Ext -- closed-loop rebalancing controller");
  // Part 1: the controller engages on the (1,3) skew and migrates.
  checks.expectGreater("skew: controller engages (triggers >= 1)",
                       metric("rebal_triggers", "skew", "(1,3)", "on"), 0.999);
  checks.expectGreater("skew: chunks migrate (migrations >= 1)",
                       metric("rebal_migrations", "skew", "(1,3)", "on"), 0.999);
  checks.expectGreater("skew: observed peak imbalance >= threshold",
                       metric("rebal_peak_imbalance", "skew", "(1,3)", "on"), 1.25);
  // Acceptance: recovered (1,3) lands within 10% of a static balanced run.
  checks.expectGreater("skew: recovered (1,3) >= 0.9 x static (2,2)",
                       bw("skew", "(1,3)", "on"), 0.9 * bw("skew", "(2,2)", "off"));
  checks.expectGreater("skew: recovered (1,3) > static (1,3)",
                       bw("skew", "(1,3)", "on"), bw("skew", "(1,3)", "off"));
  // ...and above what the static choosers average at stripe count 4.
  checks.expectGreater("skew: recovered (1,3) > deployed round-robin",
                       bw("skew", "(1,3)", "on"), bw("skew", "rr", "off"));
  checks.expectGreater("skew: recovered (1,3) > random chooser",
                       bw("skew", "(1,3)", "on"), bw("skew", "random", "off"));
  // Part 2: the crash hurts, sticky substitutes keep hurting, the
  // controller migrates the slots home.
  checks.expect("failover: no run aborts",
                metric("fault_aborted", "failover", "fault", "off") == 0.0 &&
                    metric("fault_aborted", "failover", "fault", "on") == 0.0,
                "aborted runs");
  checks.expectGreater("failover: crash costs bandwidth (none > fault)",
                       bw("failover", "none", "off"), bw("failover", "fault", "off"));
  checks.expectGreater("failover: controller engages (triggers >= 1)",
                       metric("rebal_triggers", "failover", "fault", "on"), 0.999);
  checks.expectGreater("failover: chunks migrate home (migrations >= 1)",
                       metric("rebal_migrations", "failover", "fault", "on"), 0.999);
  checks.expectGreater("failover: controller beats sticky substitutes",
                       bw("failover", "fault", "on"), bw("failover", "fault", "off"));
  checks.expectGreater("failover: recovered >= 0.9 x no-fault bandwidth",
                       bw("failover", "fault", "on"),
                       0.9 * bw("failover", "none", "off"));

  bench::writeReport(
      "rebalance", store,
      {{"skew_recovered_over_balanced", bw("skew", "(1,3)", "on") / bw("skew", "(2,2)", "off")},
       {"skew_recovered_over_static", bw("skew", "(1,3)", "on") / bw("skew", "(1,3)", "off")},
       {"failover_recovered_over_healthy",
        bw("failover", "fault", "on") / bw("failover", "none", "off")},
       {"failover_recovered_over_static",
        bw("failover", "fault", "on") / bw("failover", "fault", "off")}});
  return bench::finish(checks);
}

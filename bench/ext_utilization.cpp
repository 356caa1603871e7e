// Extension: the Fig. 8 (min,max) story *re-derived from measured traffic*.
//
// The paper infers the role of the allocation split from bandwidth
// distributions; with the observability pipeline the simulator can show the
// mechanism directly.  Scenario-1 campaigns run with per-run utilization
// measurement on: each repetition reports how many MiB crossed each server's
// NIC and what fraction of the run the link was busy, and the campaign rows
// carry a link-imbalance index (max/mean of the per-server traffic).  The
// checks below re-derive the Fig. 8 ordering from those measurements: the
// imbalance index is a pure function of the (min,max) split -- 2.0 for
// (0,4), 1.5 for (1,3), 1.0 for balanced -- and bandwidth falls exactly as
// the measured imbalance rises.
//
// The campaign also exercises the harness profiling counters (solver
// resolves, solver wall time, per-run wall time) and measures the overhead
// of tracing itself; the numbers land in BENCH_observability.json's
// headline.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>

#include "bench/common.hpp"
#include "harness/run.hpp"
#include "stats/summary.hpp"

using namespace beesim;

namespace {

double mean(const std::vector<double>& values) {
  return stats::summarize(values).mean;
}

/// The tracing-overhead yardstick: plain and traced windows alternate for
/// kTracingRounds rounds, each window repeating runOnce (seeds 7000..7009 in
/// turn) until at least kTracingWindowSeconds of host time elapsed.  A
/// round's two windows are adjacent in time, so their traced/plain ratio
/// cancels the host's speed drift between rounds and between invocations;
/// the overhead is the median of those ratios.  Each side's best (lowest)
/// seconds per run is reported next to it.
constexpr std::size_t kTracingRounds = 15;
constexpr double kTracingWindowSeconds = 0.1;

/// Host seconds per runOnce under `config`, over one window.
double secondsPerRun(const harness::RunConfig& config) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  std::size_t runs = 0;
  double elapsed = 0.0;
  do {
    (void)harness::runOnce(config, 7000 + runs % 10);
    ++runs;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < kTracingWindowSeconds);
  return elapsed / static_cast<double>(runs);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  // Equal stripe counts across the unbalanced splits so the comparison
  // isolates the (min,max) placement; (4,4) is the fully-striped reference.
  const std::map<std::string, std::vector<std::size_t>> placements{
      {"(0,4)", {4, 5, 6, 7}},
      {"(1,3)", {0, 4, 5, 6}},
      {"(2,2)", {0, 1, 4, 5}},
      {"(4,4)", {0, 1, 2, 3, 4, 5, 6, 7}},
  };

  std::vector<harness::CampaignEntry> entries;
  for (const auto& [key, targets] : placements) {
    harness::CampaignEntry entry;
    entry.config = bench::plafrimRun(topo::Scenario::kEthernet10G, 8, 8,
                                     static_cast<unsigned>(targets.size()));
    entry.config.pinnedTargets = targets;
    entry.config.observe.utilization = true;
    entry.config.observe.profile = true;
    entry.factors["alloc"] = key;
    entries.push_back(std::move(entry));
  }

  harness::CampaignTotals totals;
  auto exec = bench::executorOptions("ext_utilization");
  exec.totals = &totals;
  const auto store =
      harness::executeCampaign(entries, bench::protocolOptions(), 81, nullptr, exec);
  store.writeCsv(bench::resultsPath("ext_utilization.csv"));

  std::map<std::string, double> bw;
  std::map<std::string, double> imbalance;
  std::map<std::string, double> busy0;
  std::map<std::string, double> busy1;
  std::map<std::string, double> srv0Mib;
  std::map<std::string, double> srv1Mib;
  util::TableWriter table(
      {"alloc", "mean MiB/s", "srv0 MiB", "srv1 MiB", "busy0", "busy1", "imbalance"});
  for (const auto& [key, targets] : placements) {
    const std::map<std::string, std::string> filter{{"alloc", key}};
    bw[key] = mean(store.metric("bandwidth_mibps", filter));
    imbalance[key] = mean(store.metric("link_imbalance", filter));
    busy0[key] = mean(store.metric("srv0_busy_frac", filter));
    busy1[key] = mean(store.metric("srv1_busy_frac", filter));
    srv0Mib[key] = mean(store.metric("srv0_mib", filter));
    srv1Mib[key] = mean(store.metric("srv1_mib", filter));
    table.addRow({key, util::fmt(bw[key], 1), util::fmt(srv0Mib[key], 0),
                  util::fmt(srv1Mib[key], 0), util::fmt(busy0[key], 3),
                  util::fmt(busy1[key], 3), util::fmt(imbalance[key], 3)});
  }
  bench::printFigure(
      "Extension: measured per-server traffic vs (min,max) allocation (Scenario 1)",
      table);

  // Tracing-overhead measurement: the same configuration with and without
  // the observability stack attached (this measures the host, not the
  // model; see secondsPerRun).
  harness::RunConfig plain = entries.front().config;
  plain.observe = {};
  double plainSeconds = std::numeric_limits<double>::infinity();
  double tracedSeconds = std::numeric_limits<double>::infinity();
  std::vector<double> ratios;
  for (std::size_t round = 0; round < kTracingRounds; ++round) {
    const double plainRound = secondsPerRun(plain);
    const double tracedRound = secondsPerRun(entries.front().config);
    plainSeconds = std::min(plainSeconds, plainRound);
    tracedSeconds = std::min(tracedSeconds, tracedRound);
    ratios.push_back(tracedRound / plainRound);
  }
  const double overhead = stats::summarize(ratios).median - 1.0;

  // Traced and untraced runs must agree bitwise: the tracer only listens.
  const auto plainRecord = harness::runOnce(plain, 4242);
  const auto tracedRecord = harness::runOnce(entries.front().config, 4242);

  core::CheckList checks("Extension -- utilization observability, Scenario 1");
  // The imbalance index is a pure function of the placement split:
  checks.expectNear("(0,4) imbalance = 2.0", imbalance["(0,4)"], 2.0, 0.01);
  checks.expectNear("(1,3) imbalance = 1.5", imbalance["(1,3)"], 1.5, 0.01);
  checks.expectNear("(2,2) imbalance = 1.0", imbalance["(2,2)"], 1.0, 0.01);
  checks.expectNear("(4,4) imbalance = 1.0", imbalance["(4,4)"], 1.0, 0.01);
  // Measured traffic split matches the byte math (3 of 4 stripes on host 1):
  checks.expectNear("(1,3) srv1 carries 3/4 of the data",
                    srv1Mib["(1,3)"] / (srv0Mib["(1,3)"] + srv1Mib["(1,3)"]), 0.75, 0.01);
  checks.expectNear("(0,4) srv0 idle", srv0Mib["(0,4)"] + 1.0, 1.0, 0.01);
  // Fig. 8 ordering, re-derived from the measurement: bandwidth falls
  // monotonically as the measured imbalance rises.
  checks.expectGreater("imbalance orders (0,4) > (1,3)", imbalance["(0,4)"],
                       imbalance["(1,3)"]);
  checks.expectGreater("imbalance orders (1,3) > (2,2)", imbalance["(1,3)"],
                       imbalance["(2,2)"]);
  checks.expectGreater("bandwidth (2,2) > (1,3)", bw["(2,2)"], bw["(1,3)"]);
  checks.expectGreater("bandwidth (1,3) > (0,4)", bw["(1,3)"], bw["(0,4)"]);
  // Balanced placement loads both servers alike:
  checks.expect("(4,4) busy fractions near-equal",
                std::abs(busy0["(4,4)"] - busy1["(4,4)"]) < 0.05,
                util::fmt(busy0["(4,4)"], 3) + " vs " + util::fmt(busy1["(4,4)"], 3));
  // Profiling counters flowed up to the campaign totals:
  const std::size_t plannedRuns = placements.size() * bench::repetitions();
  checks.expect("totals cover every run", totals.runs == plannedRuns,
                std::to_string(totals.runs) + "/" + std::to_string(plannedRuns));
  checks.expect("solver resolves counted", totals.resolves > 0,
                std::to_string(totals.resolves));
  checks.expect("solver wall time profiled", totals.solveSeconds > 0.0,
                util::fmt(totals.solveSeconds * 1e3, 2) + " ms");
  checks.expect("per-run wall time accumulated",
                totals.runWallSeconds >= totals.maxRunWallSeconds &&
                    totals.maxRunWallSeconds > 0.0,
                util::fmt(totals.runWallSeconds, 3) + " s total");
  // The tracer observes without perturbing the simulation:
  checks.expect("traced run bitwise-equal bandwidth",
                tracedRecord.ior.bandwidth == plainRecord.ior.bandwidth,
                util::fmt(tracedRecord.ior.bandwidth, 6) + " vs " +
                    util::fmt(plainRecord.ior.bandwidth, 6));

  bench::writeReport("observability", store,
                     {{"runs", static_cast<double>(totals.runs)},
                      {"resolves", static_cast<double>(totals.resolves)},
                      {"solver_iterations", static_cast<double>(totals.solverIterations)},
                      {"run_wall_seconds", totals.runWallSeconds},
                      {"max_run_wall_seconds", totals.maxRunWallSeconds},
                      {"solve_seconds", totals.solveSeconds},
                      {"campaign_wall_seconds", totals.campaignWallSeconds},
                      {"tracing_rounds", static_cast<double>(kTracingRounds)},
                      {"tracing_window_seconds", kTracingWindowSeconds},
                      {"tracing_plain_seconds", plainSeconds},
                      {"tracing_traced_seconds", tracedSeconds},
                      {"tracing_overhead_fraction", overhead}});
  return bench::finish(checks);
}

// Figure 6: write bandwidth for every stripe count (1-8), 100 repetitions,
// individual points recorded.
//
// Scenario 1 (8 nodes): bi-modal clouds at counts 2, 3, 5, 6 (allocation
// luck); peak ~2200 MiB/s only at counts 2 (when (1,1)), 6 (when (3,3)) and
// 8; the round-robin count-4 default stays at ~1460.  Scenario 2 (32
// nodes): bandwidth grows with the count (~1764 -> ~8064 MiB/s mean) and so
// does the spread (sd x4.6).
#include <map>

#include "bench/common.hpp"
#include "stats/bimodal.hpp"
#include "stats/plot.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"

using namespace beesim;

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  // The bimodality analysis splits each count's sample into two means.
  if (bench::repetitions() < 4) {
    std::fprintf(stderr, "%s: the bimodality checks need >= 4 repetitions (got %zu)\n",
                 argv[0], bench::repetitions());
    return 2;
  }
  core::CheckList checks("Fig. 6 -- stripe count");

  std::map<unsigned, std::vector<double>> s1ByCount;
  std::map<unsigned, std::vector<double>> s2ByCount;

  for (const auto scenario : {topo::Scenario::kEthernet10G, topo::Scenario::kOmniPath100G}) {
    const bool s1 = scenario == topo::Scenario::kEthernet10G;
    const std::size_t nodes = s1 ? 8 : 32;  // paper Section IV-C

    std::vector<harness::CampaignEntry> entries;
    for (unsigned count = 1; count <= 8; ++count) {
      harness::CampaignEntry entry;
      entry.config = bench::plafrimRun(scenario, nodes, 8, count);
      entry.factors["count"] = std::to_string(count);
      entries.push_back(std::move(entry));
    }
    const auto cluster = entries.front().config.cluster;
    const auto store = harness::executeCampaign(entries, bench::protocolOptions(),
                                                s1 ? 61 : 62,
                                                bench::allocationAnnotator(cluster),
                                                bench::executorOptions("fig06"));

    util::TableWriter table(
        {"count", "mean MiB/s", "sd", "min", "max", "bimodal?", "allocs seen"});
    for (unsigned count = 1; count <= 8; ++count) {
      const auto bw =
          store.metric("bandwidth_mibps", {{"count", std::to_string(count)}});
      (s1 ? s1ByCount : s2ByCount)[count] = bw;
      const auto summary = stats::summarize(bw);
      const auto split = stats::twoMeansSplit(bw);
      std::string allocs;
      for (const auto& [key, values] :
           store.groupBy("alloc", "bandwidth_mibps", {{"count", std::to_string(count)}})) {
        if (!allocs.empty()) allocs += ' ';
        allocs += key + "x" + std::to_string(values.size());
      }
      table.addRow({std::to_string(count), util::fmt(summary.mean, 1),
                    util::fmt(summary.sd, 1), util::fmt(summary.min, 1),
                    util::fmt(summary.max, 1),
                    stats::isBimodal(split, bw.size()) ? "yes" : "no", allocs});
    }
    bench::printFigure(std::string("Fig. 6") + (s1 ? "a" : "b") + ": " +
                           topo::scenarioLabel(scenario) + ", " + std::to_string(nodes) +
                           " nodes x 8 ppn, round-robin chooser",
                       table);
    {
      std::vector<stats::CategoryScatter> cats;
      for (unsigned count = 1; count <= 8; ++count) {
        cats.push_back(stats::CategoryScatter{
            std::to_string(count), (s1 ? s1ByCount : s2ByCount)[count]});
      }
      stats::PlotOptions plot;
      plot.xLabel = "stripe count (individual executions)";
      plot.yLabel = "MiB/s";
      std::printf("%s\n", stats::renderCategoryScatter(cats, plot).c_str());
    }
    store.writeCsv(bench::resultsPath(std::string("fig06_") + (s1 ? "s1" : "s2") + ".csv"));
  }

  // -- Scenario 1 shape checks. -------------------------------------------
  for (const unsigned count : {2u, 6u}) {
    const auto& bw = s1ByCount[count];
    checks.expect("S1 count " + std::to_string(count) + " is bimodal",
                  stats::isBimodal(stats::twoMeansSplit(bw), bw.size()),
                  stats::twoMeansSplit(bw).describe());
  }
  for (const unsigned count : {1u, 4u, 8u}) {
    const auto& bw = s1ByCount[count];
    checks.expect("S1 count " + std::to_string(count) + " is unimodal",
                  !stats::isBimodal(stats::twoMeansSplit(bw), bw.size()),
                  stats::twoMeansSplit(bw).describe());
  }
  const auto s1c4 = stats::summarize(s1ByCount[4]);
  const auto s1c8 = stats::summarize(s1ByCount[8]);
  checks.expectNear("S1 default count 4 ~1460 MiB/s", s1c4.mean, 1460.0, 0.10);
  checks.expectNear("S1 count 8 reaches peak ~2200 MiB/s", s1c8.mean, 2200.0, 0.10);
  checks.expectGreater("S1: count 8 beats the count-4 default by >40%", s1c8.mean,
                       1.4 * s1c4.mean);
  // Count 2's upper mode reaches the peak too (one of the counts the paper
  // lists as peak-capable).
  checks.expectNear("S1 count 2 upper mode ~ peak",
                    stats::twoMeansSplit(s1ByCount[2]).upperMean, s1c8.mean, 0.10);

  // -- Scenario 2 shape checks. -------------------------------------------
  std::vector<double> xs;
  std::vector<double> means;
  for (unsigned count = 1; count <= 8; ++count) {
    xs.push_back(count);
    means.push_back(stats::summarize(s2ByCount[count]).mean);
  }
  // Near-monotone growth: allow small dips within noise at high counts
  // (counts 6-8 sit close together once the OSS service cap engages).
  for (std::size_t i = 1; i < means.size(); ++i) {
    checks.expectGreater(
        "S2 mean grows " + std::to_string(i) + " -> " + std::to_string(i + 1) + " targets",
        means[i], 0.93 * means[i - 1]);
  }
  checks.expectGreater("S2 count 8 > count 5", means[7], means[4]);
  const auto fit = stats::linearFit(xs, means);
  checks.expect("S2 growth is near-linear in the count (R2 > 0.9)", fit.r2 > 0.9,
                fit.describe());
  checks.expectRatio("S2 count 8 / count 1 ~ 4.6x (paper 8064/1764)", means[7], means[0],
                     4.6, 0.35);
  const auto sd1 = stats::summarize(s2ByCount[1]).sd;
  const auto sd8 = stats::summarize(s2ByCount[8]).sd;
  checks.expectGreater("S2 spread grows with the count (sd8 > 2.5x sd1)", sd8, 2.5 * sd1);
  return bench::finish(checks);
}

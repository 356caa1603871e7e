// Extension: read performance (the paper's other future-work direction).
//
// Section III-B: "extending our conclusions to read performance will be the
// subject of future work ... we expect the observed behaviors to be the
// same."  This bench repeats the Fig. 6 stripe-count sweep with the read
// phase and checks that expectation inside the model: the Scenario-1
// balance effect and the Scenario-2 count effect both carry over.
#include <map>

#include "bench/common.hpp"
#include "stats/summary.hpp"

using namespace beesim;

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  core::CheckList checks("Extension -- read performance mirrors write");

  for (const auto scenario : {topo::Scenario::kEthernet10G, topo::Scenario::kOmniPath100G}) {
    const bool s1 = scenario == topo::Scenario::kEthernet10G;
    const std::size_t nodes = s1 ? 8 : 32;

    std::vector<harness::CampaignEntry> entries;
    for (unsigned count = 1; count <= 8; ++count) {
      for (const auto op : {ior::Operation::kWrite, ior::Operation::kRead}) {
        harness::CampaignEntry entry;
        entry.config = bench::plafrimRun(scenario, nodes, 8, count);
        entry.config.ior.operation = op;
        entry.factors["count"] = std::to_string(count);
        entry.factors["op"] = op == ior::Operation::kWrite ? "write" : "read";
        entries.push_back(std::move(entry));
      }
    }
    const auto store =
        harness::executeCampaign(entries, bench::protocolOptions(), s1 ? 181 : 182, nullptr,
                                 bench::executorOptions("ext_read_stripecount"));

    util::TableWriter table({"count", "write MiB/s", "read MiB/s", "read/write"});
    std::map<unsigned, double> writeMean;
    std::map<unsigned, double> readMean;
    for (unsigned count = 1; count <= 8; ++count) {
      writeMean[count] = stats::summarize(store.metric(
          "bandwidth_mibps", {{"count", std::to_string(count)}, {"op", "write"}})).mean;
      readMean[count] = stats::summarize(store.metric(
          "bandwidth_mibps", {{"count", std::to_string(count)}, {"op", "read"}})).mean;
      table.addRow({std::to_string(count), util::fmt(writeMean[count], 1),
                    util::fmt(readMean[count], 1),
                    util::fmt(readMean[count] / writeMean[count], 3)});
    }
    bench::printFigure(std::string("Extension: read vs write stripe-count sweep, ") +
                           topo::scenarioLabel(scenario),
                       table);
    store.writeCsv(bench::resultsPath(std::string("ext_read_") + (s1 ? "s1" : "s2") +
                                      ".csv"));

    const std::string tag = s1 ? " [S1]" : " [S2]";
    for (const unsigned count : {1u, 4u, 8u}) {
      checks.expectNear("read ~= write at count " + std::to_string(count) + tag,
                        readMean[count], writeMean[count], 0.05);
    }
    if (s1) {
      // The S1 balance shape carries over: RR count 4 stuck, count 8 at peak.
      checks.expectGreater("read: count 8 beats count 4 by >40%" + tag, readMean[8],
                           1.4 * readMean[4]);
    } else {
      checks.expectGreater("read: count effect present" + tag, readMean[8],
                           3.0 * readMean[1]);
    }
  }
  return bench::finish(checks);
}

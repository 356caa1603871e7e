// Extension: the metadata path as a first-class bottleneck (DESIGN.md §2.10).
//
// The paper deliberately minimizes metadata influence (one shared N-1 file,
// Section III-B) -- which is precisely why its allocation story says nothing
// about the regime where most real HPC pain lives: small files and high file
// counts, where the MDS/MDT path dominates end-to-end performance outright.
// This bench puts the queued MDS/MDT model through three campaigns:
//
//   * dominance:  one IOR bandwidth phase plus an mdtest phase (the IO500's
//                 bw-then-md shape) at shrinking data sizes.  The metadata
//                 wall time is volume-independent, so below a crossover
//                 data size the md phase owns the wall clock -- the Fig. 2
//                 left-side story told from the metadata side.
//   * sharding:   the same mdtest load over 1/2/4 hash-sharded MDTs.
//                 Per-directory hashing spreads per-rank working dirs, so
//                 metadata throughput scales with the MDT count (bounded by
//                 the hottest shard); round-robin placement is the perfect-
//                 spread upper bound on the same hardware.
//   * io500:      geometric-mean score sqrt(bw * md ops/s) across the
//                 paper's (1,3)/(2,2)/(4,4) OST allocations in both
//                 scenarios.  The md phase never touches OSTs, so the score
//                 preserves the paper's allocation ranking -- balanced
//                 placements win -- while the md term is allocation-
//                 invariant (same MDTs either way).
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "ior/mdtest.hpp"
#include "stats/summary.hpp"

using namespace beesim;
using namespace beesim::util::literals;

namespace {

/// One configuration's outcome, averaged over the repetitions.
struct Outcome {
  double bandwidth = 0.0;   // IOR phase, MiB/s
  double iorSeconds = 0.0;  // IOR phase wall (incl. metadata window)
  double mdSeconds = 0.0;   // mdtest phase wall
  double mdOpsPerSec = 0.0;
  double mdImbalance = 0.0;
  double score = 0.0;       // IO500-style sqrt(bw * md ops/s)
  double mdFraction() const { return mdSeconds / (iorSeconds + mdSeconds); }
};

harness::RunConfig metadataConfig(topo::Scenario scenario, util::Bytes total,
                                  unsigned mdts, std::size_t filesPerRank,
                                  beegfs::MdShardKind shard) {
  auto config = bench::plafrimRun(scenario, 8, 8, 4, total);
  config.fs.meta.queued = true;
  config.fs.meta.mdtCount = mdts;
  config.fs.meta.shard = shard;
  ior::MdtestOptions md;
  md.filesPerRank = filesPerRank;
  config.mdtest = md;
  return config;
}

/// Run `reps` repetitions of `config`, add one row per repetition to
/// `store` (the md_* columns come from the metadata feature) and read the
/// configuration's means back.
Outcome runOutcome(const harness::RunConfig& config, std::size_t reps,
                   std::uint64_t seedBase, const std::map<std::string, std::string>& factors,
                   harness::ResultStore& store) {
  const auto results = harness::parallelMap<harness::ConcurrentResult>(
      reps, bench::jobs(),
      [&](std::size_t rep) { return harness::runSingle(config, seedBase + rep); });
  for (std::size_t rep = 0; rep < results.size(); ++rep) {
    const auto& r = results[rep];
    const auto& app = r.apps.front();
    harness::ResultRow row;
    row.factors = factors;
    row.factors["rep"] = std::to_string(rep);
    row.metrics["bandwidth_mibps"] = app.bandwidth;
    row.metrics["ior_seconds"] = app.end - app.start;
    row.metrics["score"] = std::sqrt(app.bandwidth * r.md.opsPerSec);
    harness::addFeatureColumns(config, r, row);
    store.add(std::move(row));
  }
  const auto mean = [&](const std::string& metric) {
    return stats::summarize(store.metric(metric, factors)).mean;
  };
  Outcome out;
  out.bandwidth = mean("bandwidth_mibps");
  out.iorSeconds = mean("ior_seconds");
  out.mdSeconds = mean("md_seconds");
  out.mdOpsPerSec = mean("md_ops_s");
  out.mdImbalance = mean("md_mdt_imbalance");
  out.score = mean("score");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  // Each rep runs a bandwidth phase plus ~12k metadata ops; 10 reps pin the
  // means down well (the md phase is deterministic up to per-op jitter).
  const auto reps = std::min<std::size_t>(bench::repetitions(), 10);

  harness::ResultStore store;

  // -- Part 1: metadata dominance at small data sizes. -----------------------
  const std::vector<util::Bytes> totals{256_MiB, 2_GiB, 32_GiB};
  std::map<util::Bytes, Outcome> dominance;
  util::TableWriter domTable(
      {"total", "bw MiB/s", "ior s", "md s", "md fraction", "md ops/s"});
  for (const auto total : totals) {
    const auto config = metadataConfig(topo::Scenario::kOmniPath100G, total, 1, 64,
                                       beegfs::MdShardKind::kHashDir);
    const auto out =
        runOutcome(config, reps, 51000 + total % 4096,
                   {{"part", "dominance"}, {"total_mib", std::to_string(total / util::kMiB)}},
                   store);
    dominance[total] = out;
    domTable.addRow({util::formatBytes(total), util::fmt(out.bandwidth, 0),
                     util::fmt(out.iorSeconds, 2), util::fmt(out.mdSeconds, 2),
                     util::fmt(out.mdFraction(), 3), util::fmt(out.mdOpsPerSec, 0)});
  }
  bench::printFigure(
      "Ext: metadata dominance, IOR + mdtest (64 files/rank, 1 MDT, S2)", domTable);

  // -- Part 2: MDT sharding scales metadata throughput. ----------------------
  const std::vector<unsigned> mdtCounts{1, 2, 4};
  std::map<unsigned, Outcome> sharded;
  util::TableWriter shardTable(
      {"mdts", "shard", "md ops/s", "speedup", "mdt imbalance"});
  for (const auto mdts : mdtCounts) {
    const auto config = metadataConfig(topo::Scenario::kOmniPath100G, 256_MiB, mdts,
                                       128, beegfs::MdShardKind::kHashDir);
    const auto out = runOutcome(config, reps, 52000 + mdts,
                                {{"part", "sharding"}, {"mdts", std::to_string(mdts)},
                                 {"shard", "hash"}},
                                store);
    sharded[mdts] = out;
    shardTable.addRow({std::to_string(mdts), "hash", util::fmt(out.mdOpsPerSec, 0),
                       util::fmt(out.mdOpsPerSec / sharded[1].mdOpsPerSec, 2),
                       util::fmt(out.mdImbalance, 2)});
  }
  // Round-robin on 4 MDTs: the perfect-spread upper bound for the same load.
  const auto rrConfig = metadataConfig(topo::Scenario::kOmniPath100G, 256_MiB, 4, 128,
                                       beegfs::MdShardKind::kRoundRobin);
  const auto rr = runOutcome(rrConfig, reps, 52100,
                             {{"part", "sharding"}, {"mdts", "4"}, {"shard", "rr"}}, store);
  shardTable.addRow({"4", "rr", util::fmt(rr.mdOpsPerSec, 0),
                     util::fmt(rr.mdOpsPerSec / sharded[1].mdOpsPerSec, 2),
                     util::fmt(rr.mdImbalance, 2)});
  bench::printFigure("Ext: MDT sharding, mdtest 128 files/rank (64 ranks, S2)",
                     shardTable);

  // -- Part 3: IO500-style score across the paper's allocations. -------------
  const std::map<std::string, std::vector<std::size_t>> placements{
      {"(1,3)", {0, 4, 5, 6}},
      {"(2,2)", {0, 1, 4, 5}},
      {"(4,4)", {0, 1, 2, 3, 4, 5, 6, 7}},
  };
  const std::map<std::string, topo::Scenario> scenarios{
      {"S1", topo::Scenario::kEthernet10G},
      {"S2", topo::Scenario::kOmniPath100G},
  };
  std::map<std::string, std::map<std::string, Outcome>> io500;
  util::TableWriter ioTable(
      {"scenario", "alloc", "bw MiB/s", "md ops/s", "score", "vs (1,3)"});
  for (const auto& [sname, scenario] : scenarios) {
    for (const auto& [alloc, targets] : placements) {
      auto config = metadataConfig(scenario, 8_GiB, 2, 64,
                                   beegfs::MdShardKind::kHashDir);
      config.fs.defaultStripe.stripeCount = static_cast<unsigned>(targets.size());
      config.pinnedTargets = targets;
      const auto out =
          runOutcome(config, reps, 53000 + 100 * (sname == "S2" ? 1 : 0) + targets.size(),
                     {{"part", "io500"}, {"scenario", sname}, {"alloc", alloc}}, store);
      io500[sname][alloc] = out;
      ioTable.addRow({sname, alloc, util::fmt(out.bandwidth, 0),
                      util::fmt(out.mdOpsPerSec, 0), util::fmt(out.score, 1),
                      util::fmt(out.score / io500[sname]["(1,3)"].score, 3)});
    }
  }
  bench::printFigure(
      "Ext: IO500-style score sqrt(bw x md) by OST allocation (8 nodes x 8 ppn)",
      ioTable);

  core::CheckList checks("Ext -- metadata path (queued MDS/MDT, mdtest, IO500)");
  // Part 1: the md wall time is volume-independent, so it owns the clock at
  // small data sizes and recedes at the paper's 32 GiB.
  checks.expectGreater("256 MiB: metadata dominates (md fraction > 0.6)",
                       dominance[256_MiB].mdFraction(), 0.6);
  checks.expectGreater("md fraction falls as data grows",
                       dominance[256_MiB].mdFraction(),
                       dominance[32_GiB].mdFraction());
  checks.expectGreater("32 GiB: bandwidth phase dominates (md fraction < 0.5)",
                       0.5, dominance[32_GiB].mdFraction());
  checks.expectNear("md wall time is volume-invariant",
                    dominance[256_MiB].mdSeconds, dominance[32_GiB].mdSeconds, 0.15);
  // Part 2: sharding scales the metadata path.
  checks.expectGreater("2 MDTs >= 1.4x the 1-MDT throughput",
                       sharded[2].mdOpsPerSec, 1.4 * sharded[1].mdOpsPerSec);
  checks.expectGreater("4 MDTs >= 2.2x the 1-MDT throughput",
                       sharded[4].mdOpsPerSec, 2.2 * sharded[1].mdOpsPerSec);
  checks.expectGreater("4 MDTs beat 2 MDTs", sharded[4].mdOpsPerSec,
                       sharded[2].mdOpsPerSec);
  checks.expectGreater("round-robin is the spread upper bound (ops/s)",
                       rr.mdOpsPerSec, 0.99 * sharded[4].mdOpsPerSec);
  checks.expectGreater("hash sharding leaves residual imbalance vs rr",
                       sharded[4].mdImbalance, rr.mdImbalance - 1e-9);
  // Part 3: the combined score preserves the paper's allocation ranking in
  // both scenarios, and the md term is allocation-invariant.
  for (const auto& [sname, outcomes] : io500) {
    checks.expectGreater(sname + ": score (2,2) > (1,3)", outcomes.at("(2,2)").score,
                         outcomes.at("(1,3)").score);
    checks.expectGreater(sname + ": score (4,4) > (1,3)", outcomes.at("(4,4)").score,
                         outcomes.at("(1,3)").score);
    if (sname == "S1") {
      // Network-bound scenario: the server NICs cap both balanced
      // placements, so target count washes out ((2,2) == (4,4), Fig. 8).
      checks.expectNear(sname + ": balanced scores agree ((2,2) ~ (4,4))",
                        outcomes.at("(2,2)").score, outcomes.at("(4,4)").score, 0.10);
    } else {
      // Storage-bound scenario: doubling the targets of a balanced
      // placement raises the bandwidth term, and the score follows.
      checks.expectGreater(sname + ": score (4,4) > (2,2)",
                           outcomes.at("(4,4)").score, outcomes.at("(2,2)").score);
    }
    double mdMin = 1e300;
    double mdMax = 0.0;
    for (const auto& [alloc, out] : outcomes) {
      mdMin = std::min(mdMin, out.mdOpsPerSec);
      mdMax = std::max(mdMax, out.mdOpsPerSec);
    }
    checks.expectNear(sname + ": md throughput is allocation-invariant", mdMax, mdMin,
                      0.10);
  }

  store.writeCsv(bench::resultsPath("ext_metadata.csv"));
  bench::writeReport(
      "metadata", store,
      {{"md_fraction_256mib", dominance[256_MiB].mdFraction()},
       {"md_fraction_2gib", dominance[2_GiB].mdFraction()},
       {"md_fraction_32gib", dominance[32_GiB].mdFraction()},
       {"shard_speedup_2", sharded[2].mdOpsPerSec / sharded[1].mdOpsPerSec},
       {"shard_speedup_4", sharded[4].mdOpsPerSec / sharded[1].mdOpsPerSec},
       {"score_s2_44_over_13", io500["S2"]["(4,4)"].score / io500["S2"]["(1,3)"].score}});
  return bench::finish(checks);
}

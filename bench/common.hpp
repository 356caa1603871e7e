// Shared plumbing for the figure-reproduction benches.
//
// Every bench binary regenerates one figure (or table) of the paper: it
// builds the experimental configurations, runs them under the paper's
// randomized-block protocol (100 repetitions by default; override with
// BEESIM_REPS for quick passes), prints the same rows/series the paper
// reports, writes the raw results as CSV next to the binary, and ends with
// the machine-checked shape assertions (core::CheckList).  The extension
// benches also write a BENCH_<name>.json report (writeReport).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cli/args.hpp"
#include "core/allocation.hpp"
#include "core/checks.hpp"
#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "harness/executor.hpp"
#include "ior/options.hpp"
#include "stats/summary.hpp"
#include "topology/plafrim.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace beesim::bench {

namespace detail {
/// Mutable bench-wide settings, written once by parseArgs() before any
/// worker threads exist.
struct Settings {
  std::size_t jobs = harness::defaultJobs();
  std::size_t repsOverride = 0;  // 0 = use BEESIM_REPS / the paper's 100
  bool progress = false;
};
inline Settings& settings() {
  static Settings s;
  return s;
}
}  // namespace detail

/// Parse the shared bench flags:
///   --jobs N      worker threads (0 = all hardware threads); defaults to
///                 BEESIM_JOBS, else 1.  Results are identical for any N.
///   --reps N      repetitions per configuration (overrides BEESIM_REPS)
///   --progress    live status line on stderr (runs done, ETA, slowest config)
/// Call first thing in every bench main().
inline void parseArgs(int argc, char** argv) {
  try {
    const cli::Args args(std::vector<std::string>(argv + 1, argv + argc), {"progress"});
    auto& s = detail::settings();
    s.jobs = args.getUnsigned("jobs", s.jobs);
    s.repsOverride = args.getUnsigned("reps", 0);
    s.progress = args.getBool("progress") ||
                 [] {
                   const char* env = std::getenv("BEESIM_PROGRESS");
                   return env != nullptr && env[0] == '1';
                 }();
    const auto names = args.flagNames();
    const bool unknown = std::any_of(names.begin(), names.end(), [](const std::string& name) {
      return name != "jobs" && name != "reps" && name != "progress";
    });
    if (unknown || !args.positionals().empty()) {
      std::fprintf(stderr, "usage: %s [--jobs N] [--reps N] [--progress]\n", argv[0]);
      std::exit(2);
    }
  } catch (const util::Error& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    std::exit(2);
  }
}

/// Worker threads for campaign execution (see parseArgs / BEESIM_JOBS).
inline std::size_t jobs() { return detail::settings().jobs; }

/// Repetitions per configuration; the paper uses 100.  --reps and BEESIM_REPS
/// override (e.g. BEESIM_REPS=10 for a quick pass).
inline std::size_t repetitions() {
  if (const auto reps = detail::settings().repsOverride; reps >= 1) return reps;
  if (const char* env = std::getenv("BEESIM_REPS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value >= 1) return static_cast<std::size_t>(value);
  }
  return 100;
}

/// Executor options for this bench process: --jobs worker threads plus the
/// stderr progress line when enabled.
inline harness::ExecutorOptions executorOptions(const std::string& label = "campaign") {
  harness::ExecutorOptions exec;
  exec.jobs = jobs();
  if (detail::settings().progress) exec.onProgress = harness::stderrProgress(label);
  return exec;
}

/// Protocol options used by all benches (paper Section III-C).
inline harness::ProtocolOptions protocolOptions() {
  harness::ProtocolOptions options;
  options.repetitions = repetitions();
  return options;
}

/// The paper's fixed total data size (Section III-B1).
inline constexpr util::Bytes kTotalData = 32ULL * util::kGiB;

/// A standard single-application configuration on PlaFRIM.
inline harness::RunConfig plafrimRun(topo::Scenario scenario, std::size_t nodes, int ppn,
                                     unsigned stripeCount, util::Bytes total = kTotalData) {
  harness::RunConfig config;
  config.cluster = topo::makePlafrim(scenario, nodes);
  config.fs.defaultStripe.stripeCount = stripeCount;
  config.job = ior::IorJob::onFirstNodes(nodes, ppn);
  config.ior.blockSize = ior::blockSizeForTotal(total, config.job.ranks());
  return config;
}

/// The client the fault benches run: 0.5 s comm timeout, one same-target
/// retry after 0.25 s, then degraded-stripe failover (the defaults, 5 s and
/// 3 retries, model an untuned client and would stall runs for tens of
/// seconds).
inline beegfs::ClientFaultPolicy tunedClient() {
  beegfs::ClientFaultPolicy policy;
  policy.mode = beegfs::ClientFaultPolicy::Mode::kDegraded;
  policy.ioTimeout = 0.5;
  policy.backoffBase = 0.25;
  policy.maxRetries = 1;
  return policy;
}

/// Row annotator adding the (min,max) allocation key of the run.
inline harness::RowAnnotator allocationAnnotator(const topo::ClusterConfig& cluster) {
  return [cluster](const harness::RunRecord& record, harness::ResultRow& row) {
    row.factors["alloc"] = core::Allocation(record.ior.targetsUsed, cluster).key();
  };
}

/// Print a rendered table plus a header line naming the figure.
inline void printFigure(const std::string& title, const util::TableWriter& table) {
  std::printf("==== %s ====\n%s\n", title.c_str(), table.render().c_str());
}

/// Print the checklist and return the process exit code (0 iff all passed).
inline int finish(const core::CheckList& checks) {
  std::fputs(checks.render().c_str(), stdout);
  return checks.allPassed() ? 0 : 1;
}

/// Where benches drop their raw CSVs (current directory by default,
/// override with BEESIM_RESULTS_DIR).
inline std::string resultsPath(const std::string& name) {
  const char* dir = std::getenv("BEESIM_RESULTS_DIR");
  return (dir != nullptr ? std::string(dir) : std::string(".")) + "/" + name;
}

/// Write the bench's report to resultsPath("BENCH_<name>.json"):
///
///   {"bench": name,
///    "headline": {derived number, ...},
///    "metrics": [{"name", "factors", "value", "min", "mean", "sd", "max",
///                 "reps"}, ...]}
///
/// One metric entry per (configuration, metric column) of `store`, in order
/// of first appearance, where a configuration is a row's factors without
/// "rep"; the numbers summarize that configuration's rows and "value" is
/// their mean.  `headline` holds what the rows cannot: ratios between
/// configurations, campaign totals, host timings.
inline void writeReport(const std::string& name, const harness::ResultStore& store,
                        const std::map<std::string, double>& headline) {
  struct Entry {
    std::map<std::string, std::string> factors;
    std::string metric;
    std::vector<double> values;
  };
  std::vector<Entry> entries;
  std::map<std::pair<std::map<std::string, std::string>, std::string>, std::size_t> index;
  for (const auto& row : store.rows()) {
    auto factors = row.factors;
    factors.erase("rep");
    for (const auto& [metric, value] : row.metrics) {
      const auto [it, added] = index.try_emplace({factors, metric}, entries.size());
      if (added) entries.push_back({factors, metric, {}});
      entries[it->second].values.push_back(value);
    }
  }
  util::JsonArray metrics;
  for (const auto& entry : entries) {
    const auto s = stats::summarize(entry.values);
    metrics.push_back(util::JsonObject{
        {"name", entry.metric},
        {"factors", util::JsonObject(entry.factors.begin(), entry.factors.end())},
        {"value", s.mean},
        {"min", s.min},
        {"mean", s.mean},
        {"sd", s.sd},
        {"max", s.max},
        {"reps", static_cast<double>(s.n)}});
  }
  const util::JsonValue doc(util::JsonObject{
      {"bench", name},
      {"metrics", std::move(metrics)},
      {"headline", util::JsonObject(headline.begin(), headline.end())}});
  const auto path = resultsPath("BENCH_" + name + ".json");
  std::ofstream file(path);
  file << doc.dump(2) << "\n";
  if (!file) throw util::IoError("cannot write bench report " + path);
  std::printf("%s report written to %s\n", name.c_str(), path.c_str());
}

}  // namespace beesim::bench

// Campaign executor: runs a set of experimental configurations under the
// paper's randomized-block protocol and collects a ResultStore.
//
// This is the top of the harness: every bench binary describes its figure as
// a list of (RunConfig, factor labels) entries and calls execute().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/concurrent.hpp"
#include "harness/executor.hpp"
#include "harness/protocol.hpp"
#include "harness/run.hpp"
#include "harness/store.hpp"

namespace beesim::harness {

struct CampaignEntry {
  RunConfig config;
  /// Factor labels identifying this configuration in the store
  /// (e.g. {"scenario","1"},{"nodes","8"}).
  std::map<std::string, std::string> factors;
};

/// Hook to enrich each row (e.g. with the (min,max) allocation computed by
/// the core analysis layer).  Called after the run's standard metrics are
/// filled in.
using RowAnnotator = std::function<void(const RunRecord&, ResultRow&)>;

/// Execute `repetitions` of every entry under the randomized-block protocol.
/// Rows carry the entry's factors plus "rep", and metrics
/// "bandwidth_mibps", "meta_seconds", "env_network", "env_storage".
///
/// Deterministic given `seed` -- including across `exec.jobs`: runs execute
/// concurrently through parallelFor, but every run's randomness derives from
/// its planned seed and rows are committed (and the annotator and progress
/// invoked) strictly in plan order, one at a time, so the returned store is
/// bitwise identical to serial execution.  At jobs > 1 the annotator may run
/// on a worker thread.  The first exception from a run or the annotator
/// propagates; no row after the failed one is committed.
ResultStore executeCampaign(const std::vector<CampaignEntry>& entries,
                            const ProtocolOptions& options, std::uint64_t seed,
                            const RowAnnotator& annotate = nullptr,
                            const ExecutorOptions& exec = {});

/// How a feature column folds over a campaign's rows in its totals line.
enum class Fold { kSum, kMax, kMean };

/// One "label=value[suffix]" item of a totals line; no label, no item.
struct FeatureTotal {
  const char* label = nullptr;
  Fold fold = Fold::kSum;
  int decimals = 0;
  const char* suffix = "";  ///< "", " MiB" or " s"
};

/// An optional feature's campaign columns and CLI totals, declared once.
/// The gate is the RunConfig switch that makes runConcurrent build the
/// subsystem; gated off, the feature adds no column (CSV bytes unchanged).
struct Feature {
  struct Column {
    const char* name;
    double (*get)(const ConcurrentResult&);
    FeatureTotal total = {};
  };
  const char* name;  ///< totals-line label
  bool (*gate)(const RunConfig&);
  std::vector<Column> columns;
};

/// The seven features in totals-line order: faults, mirror, rebalance,
/// health, hedge, qos, metadata.  A new counter is one line of this table.
const std::vector<Feature>& features();

/// Set the columns of every feature `config` switches on, read from `result`.
void addFeatureColumns(const RunConfig& config, const ConcurrentResult& result, ResultRow& row);

/// One "<feature> (totals over <scope>): ..." line per feature `config`
/// switches on, folded over every row of `store`.
void writeFeatureTotals(std::ostream& out, const RunConfig& config, const ResultStore& store,
                        const std::string& scope);

}  // namespace beesim::harness

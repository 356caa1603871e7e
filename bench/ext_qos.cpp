// Extension: multi-tenant QoS -- token-bucket reservations with adaptive
// borrowing (DESIGN.md §2.8).
//
// Section IV-D shows concurrent applications sharing BeeGFS split bandwidth
// by flow count, not by entitlement: a wide job (many ranks) out-muscles a
// narrow one regardless of what either was promised.  This bench provisions
// 12-64 tenants, each promised an equal slice of the cluster: half are
// narrow interactive tenants (~5 s of reserved work) and half wide batch
// tenants (twice the node count and ~15 s of reserved work).
// The reservable budget self-calibrates to 92% of a measured saturation
// aggregate (a probe run with rank-proportional volumes, so every tenant
// spans the same window and Equation 1 reads the steady capacity).  Three
// regimes per tenant count:
//
//   * unmanaged:   plain sharing.  A wide tenant fields twice the
//                  concurrent flows of a narrow one, so the narrow half
//                  runs at ~2/3 of its promised slice and misses its SLO.
//   * qos:         per-tenant token buckets sized to the slice.  Everyone
//                  tracks the reservation, fairness (Jain over
//                  achieved/SLO) goes to ~1 and the violations vanish.  The
//                  cost: when the narrow tenants finish, the wide ones keep
//                  grinding at their reserved rate and the idle slices
//                  evaporate -- aggregate utilization drops well below the
//                  unmanaged run.
//   * qos+borrow:  the BorrowLedger pools the idle refill; the wide tenants
//                  draw it and recover >= 90% of the unmanaged aggregate
//                  without un-protecting anyone still inside its promise.
//
// Two variants at 32 tenants stress the accounting: a mid-run target outage
// (timeout -> retry -> failover must not double-spend tokens) and buddy
// mirroring (replica flows ride the primary's admission), the latter
// calibrated against its own mirrored saturation probe.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "faults/schedule.hpp"
#include "qos/manager.hpp"
#include "stats/summary.hpp"

using namespace beesim;
using namespace beesim::util::literals;

namespace {

constexpr double kMiBd = static_cast<double>(util::kMiB);
constexpr double kBudgetFraction = 0.92;  // reservable share of the saturation probe
/// Reserved-work horizons: a tenant's volume is its SLO rate times this, so
/// the narrow half drains early and leaves idle slices to borrow.
constexpr double kNarrowHorizon = 5.0;
constexpr double kWideHorizon = 15.0;
constexpr double kSloTolerance = 0.90;  // achieved >= tolerance * SLO keeps the promise

struct TenantMix {
  std::size_t tenants = 0;
  std::size_t narrow = 0;
  std::size_t narrowNodes = 2;
  std::size_t wideNodes() const { return 2 * narrowNodes; }
  std::size_t wide() const { return tenants - narrow; }
  std::size_t nodes() const { return narrow * narrowNodes + wide() * wideNodes(); }
};

TenantMix mixFor(std::size_t tenants) {
  TenantMix mix;
  mix.tenants = tenants;
  mix.narrow = std::max<std::size_t>(1, tenants / 2);
  // Per-rank paced rates must stay below the contended per-flow service rate
  // or a tenant cannot physically consume its reservation (each rank keeps
  // one write in flight).  Slices shrink with the tenant count, so small
  // counts need wider jobs: ~48 nodes' worth of narrow ranks across the
  // narrow half keeps every per-rank rate comfortably low.
  mix.narrowNodes = std::max<std::size_t>(2, (48 + tenants - 1) / tenants);
  return mix;
}

ior::IorJob jobFor(const TenantMix& mix, std::size_t tenant, std::size_t* node) {
  const auto width = tenant < mix.narrow ? mix.narrowNodes : mix.wideNodes();
  ior::IorJob job;
  job.ppn = 8;
  for (std::size_t n = 0; n < width; ++n) job.nodeIds.push_back(*node + n);
  *node += width;
  return job;
}

/// The real workload: volume = SLO rate x horizon, so under QoS the narrow
/// half finishes around kNarrowHorizon and the wide rest around
/// kWideHorizon.  With `withQos` each tenant carries an explicit reservation
/// equal to its slice (burst defaults to one second at the rate).
std::vector<harness::AppSpec> tenantSpecs(const TenantMix& mix, double slice,
                                          bool withQos) {
  std::vector<harness::AppSpec> specs;
  std::size_t node = 0;
  for (std::size_t t = 0; t < mix.tenants; ++t) {
    harness::AppSpec spec;
    spec.job = jobFor(mix, t, &node);
    const double horizon = t < mix.narrow ? kNarrowHorizon : kWideHorizon;
    // Segmented writes (~4 MiB per segment, whole MiB blocks): each rank
    // chains many small writes instead of one huge one, so the run's tail is
    // one small chunk flow, not a straggling block-sized transfer.
    const double perRank = slice * horizon / static_cast<double>(spec.job.ranks());
    spec.ior.segments = std::max(1, static_cast<int>(perRank / 4.0 + 0.5));
    const auto blockMiB = std::max<util::Bytes>(
        1, static_cast<util::Bytes>(perRank / spec.ior.segments + 0.5));
    spec.ior.blockSize = blockMiB * util::kMiB;
    if (withQos) {
      qos::QosAppSpec qspec;
      qspec.rate = slice;
      spec.qos = qspec;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

enum class Leg { kUnmanaged, kQos, kBorrow };

const char* legName(Leg leg) {
  switch (leg) {
    case Leg::kUnmanaged: return "unmanaged";
    case Leg::kQos: return "qos";
    case Leg::kBorrow: return "qos+borrow";
  }
  return "?";
}

/// One regime's outcome, read back from its rows in the store.
struct LegOutcome {
  double aggregate = 0.0;      // Equation-1 MiB/s, mean over reps
  double jainRaw = 0.0;        // Jain over achieved/SLO
  double jainSat = 0.0;        // Jain over min(achieved/SLO, 1): promise-keeping
  double violationRate = 0.0;  // tenants below kSloTolerance x SLO, fraction
  double narrowAchieved = 0.0;  // mean narrow-tenant bandwidth, MiB/s
  double borrowedMiB = 0.0;
  bool anyFailed = false;
  bool chargeExact = true;  // issued tokens == logical bytes, every rep
};

struct LegConfig {
  Leg leg = Leg::kUnmanaged;
  bool mirror = false;
  std::string faultSchedule;  // empty = healthy
};

harness::RunConfig baseFor(const TenantMix& mix, const LegConfig& cfg, double slice) {
  harness::RunConfig base;
  base.cluster = topo::makePlafrim(topo::Scenario::kOmniPath100G, mix.nodes());
  if (cfg.mirror) {
    base.fs.mirror.enabled = true;
    base.fs.defaultStripe.mirror = true;
  }
  if (!cfg.faultSchedule.empty()) {
    base.faults.schedule = faults::parseSchedule(cfg.faultSchedule);
    base.fs.faults = bench::tunedClient();
  }
  if (cfg.leg != Leg::kUnmanaged) {
    base.qos.enabled = true;
    base.qos.rate = slice;  // default; every app carries an explicit spec anyway
    base.qos.borrow = cfg.leg == Leg::kBorrow;
  }
  return base;
}

/// Run `reps` repetitions of one regime, add one row per repetition to
/// `store` (the qos_*, fault_* and mirror_* columns come from the features
/// the regime switches on) and read the regime's outcome back.
LegOutcome runLeg(const TenantMix& mix, const LegConfig& cfg, double slice,
                  std::size_t reps, std::uint64_t seedBase, harness::ResultStore& store) {
  const auto specs = tenantSpecs(mix, slice, cfg.leg != Leg::kUnmanaged);
  const auto base = baseFor(mix, cfg, slice);
  const auto results = harness::parallelMap<harness::ConcurrentResult>(
      reps, bench::jobs(),
      [&](std::size_t rep) { return harness::runConcurrent(base, specs, seedBase + rep); });

  const std::map<std::string, std::string> factors{
      {"tenants", std::to_string(mix.tenants)},
      {"leg", legName(cfg.leg)},
      {"variant", cfg.mirror ? "mirror" : cfg.faultSchedule.empty() ? "healthy" : "fault"}};
  for (std::size_t rep = 0; rep < results.size(); ++rep) {
    const auto& result = results[rep];
    std::vector<double> raw;
    std::vector<double> sat;
    std::size_t violated = 0;
    double totalBytes = 0.0;
    double narrowSum = 0.0;
    for (std::size_t t = 0; t < specs.size(); ++t) {
      const double ratio = result.apps[t].bandwidth / slice;
      raw.push_back(ratio);
      sat.push_back(std::min(ratio, 1.0));
      if (ratio < kSloTolerance) ++violated;
      if (t < mix.narrow) narrowSum += result.apps[t].bandwidth;
      totalBytes += static_cast<double>(result.apps[t].totalBytes);
    }
    harness::ResultRow row;
    row.factors = factors;
    row.factors["rep"] = std::to_string(rep);
    row.metrics["aggregate_mibps"] = result.aggregateBandwidth;
    row.metrics["jain_raw"] = stats::jainIndex(raw);
    row.metrics["jain_sat"] = stats::jainIndex(sat);
    row.metrics["violation_rate"] =
        static_cast<double>(violated) / static_cast<double>(specs.size());
    row.metrics["narrow_mibps"] = narrowSum / static_cast<double>(mix.narrow);
    row.metrics["total_mib"] = totalBytes / kMiBd;
    harness::addFeatureColumns(base, result, row);
    store.add(std::move(row));
  }

  const auto mean = [&](const std::string& metric) {
    return stats::summarize(store.metric(metric, factors)).mean;
  };
  LegOutcome out;
  out.aggregate = mean("aggregate_mibps");
  out.jainRaw = mean("jain_raw");
  out.jainSat = mean("jain_sat");
  out.violationRate = mean("violation_rate");
  out.narrowAchieved = mean("narrow_mibps");
  if (base.qos.enabled) {
    out.borrowedMiB = mean("qos_borrowed_mib");
    // Charge-once contract: tokens cover every logical byte exactly,
    // including reps where chunks timed out, failed over, or mirrored.
    out.chargeExact =
        store.metric("qos_issued_mib", factors) == store.metric("total_mib", factors);
  }
  if (!base.faults.empty()) {
    out.anyFailed = stats::summarize(store.metric("fault_aborted", factors)).max > 0.0;
  }
  return out;
}

/// Saturation probe: every rank writes the same volume, so all tenants span
/// the same window and the Equation-1 aggregate reads the cluster's steady
/// contended capacity.  That (not the lopsided-window aggregate of the real
/// workload) is the base the reservable budget calibrates from.
double saturationCapacity(const TenantMix& mix, const LegConfig& cfg,
                          std::size_t reps, std::uint64_t seedBase) {
  std::vector<harness::AppSpec> specs;
  std::size_t node = 0;
  for (std::size_t t = 0; t < mix.tenants; ++t) {
    harness::AppSpec spec;
    spec.job = jobFor(mix, t, &node);
    spec.ior.blockSize = 4_MiB;
    spec.ior.segments = 8;
    specs.push_back(std::move(spec));
  }
  const auto base = baseFor(mix, cfg, 0.0);
  const auto results = harness::parallelMap<harness::ConcurrentResult>(
      reps, bench::jobs(),
      [&](std::size_t rep) { return harness::runConcurrent(base, specs, seedBase + rep); });
  std::vector<double> aggregates;
  for (const auto& result : results) aggregates.push_back(result.aggregateBandwidth);
  return stats::summarize(aggregates).mean;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parseArgs(argc, argv);
  // Each rep simulates up to ~100 GiB across up to 64 tenants; a dozen reps
  // pin the means down well (the protocol noise is mild at this scale).
  const auto reps = std::min<std::size_t>(bench::repetitions(), 12);

  harness::ResultStore store;

  const std::vector<std::size_t> tenantCounts{12, 32, 64};
  util::TableWriter table({"tenants", "leg", "aggregate", "vs unmanaged", "jain",
                           "jain(sat)", "slo viol %", "narrow MiB/s", "borrowed MiB"});

  std::map<std::size_t, std::map<std::string, LegOutcome>> outcomes;
  std::map<std::size_t, double> unmanagedAggregate;
  std::map<std::size_t, double> slices;
  for (const auto tenants : tenantCounts) {
    const auto mix = mixFor(tenants);
    const std::uint64_t seedBase = 41000 + 1000 * tenants;
    // Self-calibration: reserve 92% of what this mix saturates the cluster
    // at, split into equal per-tenant slices.
    const double capacity = saturationCapacity(mix, LegConfig{}, reps, seedBase);
    const double slice =
        kBudgetFraction * capacity / static_cast<double>(tenants);
    slices[tenants] = slice;

    for (const auto leg : {Leg::kUnmanaged, Leg::kQos, Leg::kBorrow}) {
      LegConfig cfg;
      cfg.leg = leg;
      const auto outcome = runLeg(mix, cfg, slice, reps,
                                  seedBase + 100 * static_cast<std::uint64_t>(leg), store);
      outcomes[tenants][legName(leg)] = outcome;
      if (leg == Leg::kUnmanaged) unmanagedAggregate[tenants] = outcome.aggregate;
      const double baseline = unmanagedAggregate[tenants];
      table.addRow({std::to_string(tenants), legName(leg),
                    util::fmt(outcome.aggregate, 1),
                    util::fmt(outcome.aggregate / baseline, 3),
                    util::fmt(outcome.jainRaw, 3), util::fmt(outcome.jainSat, 3),
                    util::fmt(100.0 * outcome.violationRate, 1),
                    util::fmt(outcome.narrowAchieved, 1),
                    leg == Leg::kBorrow ? util::fmt(outcome.borrowedMiB, 1) : "-"});
    }
  }
  bench::printFigure("Ext: multi-tenant QoS, token buckets + adaptive borrowing (S2)",
                     table);

  // -- Stress variants at 32 tenants: mid-run outage, buddy mirroring. ------
  const auto mix32 = mixFor(32);
  LegConfig faultCfg;
  faultCfg.leg = Leg::kBorrow;
  faultCfg.faultSchedule = "off:t0@2;on:t0@6";
  const auto faultOutcome = runLeg(mix32, faultCfg, slices[32], reps, 91000, store);

  LegConfig mirrorUnmanaged;
  mirrorUnmanaged.mirror = true;
  const double mirrorCapacity = saturationCapacity(mix32, mirrorUnmanaged, reps, 92000);
  const double mirrorSlice = kBudgetFraction * mirrorCapacity / 32.0;
  const auto mirrorUnmanagedOutcome =
      runLeg(mix32, mirrorUnmanaged, mirrorSlice, reps, 92000, store);
  LegConfig mirrorCfg = mirrorUnmanaged;
  mirrorCfg.leg = Leg::kBorrow;
  const auto mirrorOutcome = runLeg(mix32, mirrorCfg, mirrorSlice, reps, 93000, store);

  util::TableWriter stress({"variant", "leg", "aggregate", "jain(sat)", "slo viol %",
                            "charge-once"});
  const auto stressRow = [&](const std::string& variant, const char* leg,
                             const LegOutcome& outcome) {
    stress.addRow({variant, leg, util::fmt(outcome.aggregate, 1),
                   util::fmt(outcome.jainSat, 3),
                   util::fmt(100.0 * outcome.violationRate, 1),
                   outcome.chargeExact ? "exact" : "VIOLATED"});
  };
  stressRow("fault", "qos+borrow", faultOutcome);
  stressRow("mirror", "unmanaged", mirrorUnmanagedOutcome);
  stressRow("mirror", "qos+borrow", mirrorOutcome);
  bench::printFigure("Ext: QoS stress variants (32 tenants)", stress);

  core::CheckList checks("Ext -- multi-tenant QoS");
  for (const auto tenants : {32ul, 64ul}) {
    const auto& un = outcomes[tenants]["unmanaged"];
    const auto& qos = outcomes[tenants]["qos"];
    const auto& borrow = outcomes[tenants]["qos+borrow"];
    const auto tag = std::to_string(tenants) + " tenants: ";
    // The problem exists: plain sharing breaks the narrow half's promise...
    checks.expectGreater(tag + "unmanaged misses SLOs", un.violationRate, 0.2);
    checks.expectGreater(tag + "unmanaged crushes narrow tenants",
                         kSloTolerance * slices[tenants], un.narrowAchieved);
    // ...and managed sharing keeps it, fairly.
    checks.expectGreater(tag + "qos Jain >= 0.9", qos.jainRaw, 0.9);
    checks.expectGreater(tag + "qos fairer than unmanaged", qos.jainRaw, un.jainRaw);
    checks.expectGreater(tag + "qos cuts SLO violations",
                         un.violationRate, qos.violationRate + 0.15);
    checks.expectGreater(tag + "borrow cuts SLO violations",
                         un.violationRate, borrow.violationRate + 0.15);
    checks.expectGreater(tag + "borrow keeps promise fairness >= 0.9",
                         borrow.jainSat, 0.9);
    // Borrowing recovers the aggregate the plain throttle gives up.
    checks.expectGreater(tag + "borrowing engages (borrowed > 0)",
                         borrow.borrowedMiB, 0.0);
    checks.expectGreater(tag + "borrow beats plain qos aggregate",
                         borrow.aggregate, qos.aggregate);
    checks.expectGreater(tag + "borrow recovers >= 90% of unmanaged aggregate",
                         borrow.aggregate, 0.9 * unmanagedAggregate[tenants]);
    checks.expect(tag + "charge-once holds", qos.chargeExact && borrow.chargeExact,
                  "tokensIssued != logical bytes");
  }
  checks.expect("fault variant: no tenant aborts", !faultOutcome.anyFailed, "aborts");
  checks.expect("fault variant: retries/failovers never double-spend tokens",
                faultOutcome.chargeExact, "tokensIssued != logical bytes");
  checks.expect("fault variant: SLO violations stay at or below unmanaged",
                faultOutcome.violationRate <=
                    outcomes[32]["unmanaged"].violationRate + 1e-9,
                "outage pushed violations above the unmanaged rate");
  checks.expect("mirror variant: replica flows ride the primary admission",
                mirrorOutcome.chargeExact, "tokensIssued != logical bytes");
  checks.expectGreater("mirror variant: qos+borrow cuts mirrored SLO violations",
                       mirrorUnmanagedOutcome.violationRate,
                       mirrorOutcome.violationRate + 0.15);
  checks.expectGreater("mirror variant: borrow recovers >= 90% of mirrored unmanaged",
                       mirrorOutcome.aggregate,
                       0.9 * mirrorUnmanagedOutcome.aggregate);

  store.writeCsv(bench::resultsPath("ext_qos.csv"));
  std::map<std::string, double> headline{
      {"budget_fraction", kBudgetFraction},
      {"fault_charge_exact", faultOutcome.chargeExact ? 1.0 : 0.0},
      {"mirror_charge_exact", mirrorOutcome.chargeExact ? 1.0 : 0.0}};
  for (const auto tenants : tenantCounts) {
    const auto key = std::to_string(tenants);
    headline["slice_mibps_" + key] = slices[tenants];
    headline["borrow_over_unmanaged_" + key] =
        outcomes[tenants]["qos+borrow"].aggregate / unmanagedAggregate[tenants];
    headline["qos_over_unmanaged_" + key] =
        outcomes[tenants]["qos"].aggregate / unmanagedAggregate[tenants];
  }
  bench::writeReport("qos", store, headline);
  return bench::finish(checks);
}

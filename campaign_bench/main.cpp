// campaign_bench: times one named workload of the simulator for a fixed
// host-time budget and prints one JSON result document on stdout.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--reference FILE] [--spans-out FILE]
//   campaign_bench --print-digest NAME [--reference FILE]
//
// --trace 0 measures the end-to-end metrics: repetitions go through the
// public harness entry points (executeCampaign -> runOnce, or runConcurrent)
// with nothing attached.  Their times are thread-CPU times scaled to the
// reference host speed by the probe run between batches (speed_probe.hpp).
// --trace 1 alternates untraced campaign batches with the traced
// composition (traced.hpp) of the same planned repetitions, checks both
// produce bitwise-equal outputs, and reports the per-layer metrics.  Every repetition is checked for correctness
// (outputs.hpp); set-up also replays the default seed's first repetitions
// and compares their 6-decimal digest with the recorded reference.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/concurrent.hpp"
#include "harness/run.hpp"
#include "outputs.hpp"
#include "speed_probe.hpp"
#include "traced.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace campaign_bench {
namespace {

using namespace beesim;
using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

/// The seed whose first repetitions' digest is recorded in the reference.
constexpr std::uint64_t kReferenceSeed = 1;
constexpr std::size_t kReferenceReps = 3;
/// Set-ups per end-to-end run; setup_s is their median.  The first runs
/// before timing, the others are spread over the timed window, so host-speed
/// drift during the run reaches set-up time as it reaches the repetitions.
constexpr std::size_t kSetups = 9;
/// Tail percentiles tried from the top; the first with >= 10 samples beyond
/// it is reported (the last one when none has).  The ladder stops at p95:
/// beyond it, a run's tail is set by a few host hiccups, and p99 spread
/// ~10% between runs where p95 spread ~2%.
constexpr double kTailLadder[] = {95.0, 90.0, 75.0, 50.0};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string reference;
  std::string spansOut;
  bool printDigest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "campaign_bench: %s\n"
               "usage: campaign_bench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                      [--reference FILE] [--spans-out FILE]\n"
               "       campaign_bench --print-digest NAME\n",
               why.c_str());
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options o;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--print-digest") {
        o.workload = value;
        o.printDigest = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        haveSeed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--reference") {
        o.reference = value;
      } else if (flag == "--spans-out") {
        o.spansOut = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const auto& names = workloadNames();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!o.printDigest && (!haveSeed || !(o.seconds > 0.0))) {
    usage("--seed and a positive --seconds are required");
  }
  return o;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Linear-interpolation percentile (p in [0, 100]) of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One metric in the shared result schema: a value plus, for sampled
/// timings, min / mean / sd / max over `reps` samples.
JsonObject metric(const std::string& name, const std::string& unit, double value,
                  const std::vector<double>& samples = {}) {
  JsonObject m{{"name", name}, {"unit", unit}, {"value", value}};
  if (!samples.empty()) {
    const double n = static_cast<double>(samples.size());
    const double mean = std::accumulate(samples.begin(), samples.end(), 0.0) / n;
    double ss = 0.0;
    for (const double x : samples) ss += (x - mean) * (x - mean);
    m["min"] = *std::min_element(samples.begin(), samples.end());
    m["max"] = *std::max_element(samples.begin(), samples.end());
    m["mean"] = mean;
    m["sd"] = samples.size() > 1 ? std::sqrt(ss / (n - 1.0)) : 0.0;
    m["reps"] = n;
  }
  return m;
}

/// Tallies repetitions and keeps the first few failure messages.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  JsonArray failures;

  void add(const std::vector<std::string>& errors) {
    ++attempted;
    if (errors.empty()) return;
    ++failed;
    for (const auto& e : errors) {
      if (failures.size() < 8) failures.emplace_back(e);
    }
  }
  void fail(const std::string& error) { add({error}); }
};

/// One repetition through runOnce / runConcurrent (set-up's reference
/// replay).
struct UntracedRep {
  RepOutput output;
  std::vector<std::string> errors;
};

UntracedRep untracedRep(const Workload& w, const PlannedRep& planned) {
  UntracedRep out;
  if (w.concurrent) {
    auto base = w.base;
    base.startAt = planned.systemTime;
    const auto result = harness::runConcurrent(base, w.apps, planned.seed);
    out.output = outputOf(result);
    out.errors = checkRep(w, planned, result);
  } else {
    auto config = w.entries.at(planned.configIndex).config;
    config.startAt = planned.systemTime;
    const auto record = harness::runOnce(config, planned.seed);
    out.output = outputOf(record);
    out.errors = checkRep(w, planned, record);
  }
  return out;
}

/// Digest of the reference seed's first repetitions.
std::string referenceDigest(const Workload& w, Tally& tally) {
  const auto plan = planBatch(w, batchSeed(kReferenceSeed, 0));
  Digest digest;
  for (std::size_t i = 0; i < kReferenceReps && i < plan.size(); ++i) {
    const auto rep = untracedRep(w, plan[i]);
    tally.add(rep.errors);
    digest.add(rep.output);
  }
  return digest.hex();
}

std::string loadReference(const std::string& path, const std::string& workload) {
  if (path.empty()) return {};
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::stringstream text;
  text << in.rdbuf();
  return util::parseJson(text.str()).at("digests").at(workload).asString();
}

/// One set-up: build the inputs and replay the reference seed's first
/// repetitions, which also warms caches and lazy initialization before
/// timing.  Seed-independent, so set-up time compares across seeds.
Workload setUp(const Options& o, const std::string& expected, Tally& tally) {
  auto w = makeWorkload(o.workload);
  const auto got = referenceDigest(w, tally);
  if (!expected.empty() && got != expected) {
    tally.fail("reference digest " + got + " != recorded " + expected);
  }
  return w;
}

/// One untraced campaign batch through the harness, with every committed
/// repetition checked and its outputs kept in plan order.
struct BatchResult {
  std::vector<double> repSeconds;  // per repetition, between harness commits
  std::vector<double> runSeconds;  // per repetition, inside runOnce / runConcurrent
  double wall = 0.0;               // the whole batch
  double benchSeconds = 0.0;       // the benchmark's own checks inside the batch
  double harnessSeconds = 0.0;     // wall - runs - bench
  // The same in thread-CPU seconds (repCpu, cpu, benchCpu).
  std::vector<double> repCpu;
  double cpu = 0.0;
  double benchCpu = 0.0;
  std::vector<RepOutput> outputs;
};

BatchResult runBatch(const Workload& w, const std::vector<PlannedRep>& plan,
                     std::uint64_t campaignSeed, Tally& tally) {
  BatchResult b;
  const auto start = Clock::now();
  const double cpuStart = threadCpuSeconds();
  if (w.concurrent) {
    // runConcurrent has no campaign driver; walk the same protocol plan.
    for (const auto& planned : plan) {
      auto base = w.base;
      base.startAt = planned.systemTime;
      const auto t0 = Clock::now();
      const double c0 = threadCpuSeconds();
      try {
        const auto result = harness::runConcurrent(base, w.apps, planned.seed);
        const auto t1 = Clock::now();
        const double c1 = threadCpuSeconds();
        b.repSeconds.push_back(secondsBetween(t0, t1));
        b.runSeconds.push_back(b.repSeconds.back());
        b.repCpu.push_back(c1 - c0);
        tally.add(checkRep(w, planned, result));
        b.outputs.push_back(outputOf(result));
        b.benchSeconds += secondsBetween(t1, Clock::now());
        b.benchCpu += threadCpuSeconds() - c1;
      } catch (const std::exception& e) {
        tally.fail(std::string("run threw: ") + e.what());
        b.outputs.emplace_back();
      }
    }
  } else {
    std::size_t committed = 0;
    auto last = start;
    double cpuLast = cpuStart;
    const auto annotate = [&](const harness::RunRecord& record, harness::ResultRow&) {
      const auto t0 = Clock::now();
      const double c0 = threadCpuSeconds();
      // Host time between commits: runOnce plus the harness's row work.
      b.repSeconds.push_back(secondsBetween(last, t0));
      b.repCpu.push_back(c0 - cpuLast);
      b.runSeconds.push_back(record.wallSeconds);
      auto errors = checkRep(w, plan.at(committed), record);
      if (record.seed != plan[committed].seed) errors.emplace_back("plan mismatch");
      tally.add(errors);
      b.outputs.push_back(outputOf(record));
      ++committed;
      last = Clock::now();
      cpuLast = threadCpuSeconds();
      b.benchSeconds += secondsBetween(t0, last);
      b.benchCpu += cpuLast - c0;
    };
    harness::ExecutorOptions exec;
    exec.jobs = 1;
    try {
      harness::executeCampaign(w.entries, w.protocol, campaignSeed, annotate, exec);
    } catch (const std::exception& e) {
      for (std::size_t i = committed; i < plan.size(); ++i) {
        tally.fail(std::string("campaign threw: ") + e.what());
        b.outputs.emplace_back();
      }
    }
  }
  b.wall = secondsBetween(start, Clock::now());
  b.cpu = threadCpuSeconds() - cpuStart;
  b.harnessSeconds = b.wall - std::accumulate(b.runSeconds.begin(), b.runSeconds.end(), 0.0) -
                     b.benchSeconds;
  return b;
}

/// Peak resident set of this process image, in KiB.  VmHWM rather than
/// getrusage's ru_maxrss, which also counts the parent's footprint between
/// fork and exec.
double peakRssKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// `setUpAgain()` times one more set-up and returns its scaled seconds.
/// Each batch is scaled by the mean of the probes measured around it.
template <typename SetUp>
JsonObject endToEnd(const Options& o, const Workload& w, std::vector<double> setups,
                    SetUp&& setUpAgain, SpeedProbe& probe, Tally& tally) {
  std::vector<double> runMs;      // scaled thread-CPU ms per repetition
  std::vector<double> probeMs;
  double busy = 0.0;              // scaled thread-CPU seconds, checks excluded
  double unscaledBusy = 0.0;
  double before = probe.measure();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(o.seconds);
  const auto setUpEvery = std::chrono::duration<double>(o.seconds / kSetups);
  auto nextSetUp = start + setUpEvery;
  for (std::size_t batch = 0; batch == 0 || Clock::now() < deadline; ++batch) {
    const auto campaignSeed = batchSeed(o.seed, batch);
    const auto b = runBatch(w, planBatch(w, campaignSeed), campaignSeed, tally);
    const double after = probe.measure();
    probeMs.push_back(after * 1e3);
    const double scale = kProbeReferenceSeconds / (0.5 * (before + after));
    before = after;
    for (const double s : b.repCpu) runMs.push_back(s * scale * 1e3);
    busy += (b.cpu - b.benchCpu) * scale;
    unscaledBusy += b.cpu - b.benchCpu;
    if (setups.size() < kSetups && Clock::now() >= nextSetUp) {
      setups.push_back(setUpAgain());
      before = probe.measure();
      nextSetUp += setUpEvery;
    }
  }
  std::vector<double> sorted = runMs;
  std::sort(sorted.begin(), sorted.end());
  double tailP = kTailLadder[std::size(kTailLadder) - 1];
  for (const double p : kTailLadder) {
    if (static_cast<double>(sorted.size()) * (1.0 - p / 100.0) >= 10.0) {
      tailP = p;
      break;
    }
  }
  auto tail = metric("run_ms.tail", "ms", percentile(sorted, tailP), runMs);
  tail["percentile"] = tailP;
  tail["beyond"] = std::floor(static_cast<double>(sorted.size()) * (1.0 - tailP / 100.0));

  JsonArray metrics{
      metric("runs_per_s", "1/s", static_cast<double>(runMs.size()) / busy),
      metric("run_ms.p50", "ms", median(runMs), runMs),
      tail,
      metric("setup_s", "s", median(setups), setups),
      metric("peak_rss_mib", "MiB", peakRssKiB() / 1024.0),
      // Diagnostics of the scaling: the probe's own time, and throughput
      // in unscaled thread-CPU time.
      metric("probe_ms", "ms", median(probeMs), probeMs),
      metric("runs_per_s.unscaled", "1/s", static_cast<double>(runMs.size()) / unscaledBusy),
      metric("failed_frac", "ratio",
             ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted))),
  };
  return JsonObject{{"metrics", metrics}, {"layers", JsonObject{}}};
}

/// Per-layer metrics grouped by layer name.
using Layers = std::map<std::string, JsonArray>;

void layerMetric(Layers& layers, const std::string& layer, const std::string& name,
                 const std::string& unit, double value) {
  layers[layer].push_back(JsonObject{{"name", name}, {"unit", unit}, {"value", value}});
}

JsonObject traced(const Options& o, const Workload& w, Tally& tally) {
  SpanLog log;
  // The inputs' own span: topo::makePlafrim and the RunConfig / AppSpec list.
  const int inputs = log.open("workload.inputs", -1, -1);
  makeWorkload(o.workload);
  log.close(inputs);
  std::vector<LayerSample> samples;  // every traced repetition
  std::vector<LayerSample> counted;  // batch 0 only: deterministic counts
  std::vector<double> untracedSeconds;
  double harnessSeconds = 0.0;
  std::size_t harnessReps = 0;
  long rep = 0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(o.seconds);
  for (std::size_t batch = 0; batch == 0 || Clock::now() < deadline; ++batch) {
    const auto campaignSeed = batchSeed(o.seed, batch);
    const auto plan = planBatch(w, campaignSeed);
    // Leg 1: the untraced campaign batch.
    const auto b = runBatch(w, plan, campaignSeed, tally);
    harnessSeconds += b.harnessSeconds;
    harnessReps += plan.size();
    // Leg 2: the same planned repetitions, traced.
    for (std::size_t i = 0; i < plan.size(); ++i) {
      TracedRep t;
      try {
        t = tracedRep(w, plan[i], log, rep++);
      } catch (const std::exception& e) {
        tally.fail(std::string("traced run threw: ") + e.what());
        continue;
      }
      if (!sameBits(t.output, b.outputs.at(i))) {
        t.errors.emplace_back("traced outputs differ from the untraced run");
      }
      tally.add(t.errors);
      samples.push_back(t.sample);
      if (batch == 0) counted.push_back(t.sample);
    }
    untracedSeconds.insert(untracedSeconds.end(), b.runSeconds.begin(), b.runSeconds.end());
  }
  if (!o.spansOut.empty() && !log.writeChromeTrace(o.spansOut)) {
    tally.fail("cannot write spans to " + o.spansOut);
  }

  const auto sum = [](const std::vector<LayerSample>& xs, double LayerSample::*field) {
    double total = 0.0;
    for (const auto& x : xs) total += x.*field;
    return total;
  };
  const auto med = [](const std::vector<LayerSample>& xs, auto fn) {
    std::vector<double> v;
    for (const auto& x : xs) v.push_back(fn(x));
    return median(v);
  };
  const double n = static_cast<double>(std::max<std::size_t>(1, counted.size()));
  const auto perRun = [&](double LayerSample::*field) { return sum(counted, field) / n; };
  const auto loopSelf = [](const LayerSample& s) {
    return s.run - s.solve - s.observer - s.nested;
  };
  std::vector<double> tracedSeconds;
  for (const auto& s : samples) tracedSeconds.push_back(s.rep);

  Layers layers;
  layerMetric(layers, "harness", "harness.overhead_us_per_run", "us",
              1e6 * ratio(harnessSeconds, static_cast<double>(harnessReps)));
  layerMetric(layers, "beegfs", "beegfs.build_us_per_run", "us",
              1e6 * med(samples, [](const LayerSample& s) { return s.build; }));
  layerMetric(layers, "ior", "ior.launch_us_per_run", "us",
              1e6 * med(samples, [](const LayerSample& s) { return s.launch; }));
  const double solve = sum(samples, &LayerSample::solve);
  const double repTotal = sum(samples, &LayerSample::rep);
  layerMetric(layers, "sim", "sim.solve_ms_per_run", "ms",
              1e3 * med(samples, [](const LayerSample& s) { return s.solve; }));
  layerMetric(layers, "sim", "sim.solve_share", "ratio", ratio(solve, repTotal));
  const double resolves = sum(counted, &LayerSample::resolves);
  layerMetric(layers, "sim", "sim.resolves_per_run", "count", perRun(&LayerSample::resolves));
  layerMetric(layers, "sim", "sim.flows_per_resolve", "count",
              ratio(sum(counted, &LayerSample::solvedFlows), resolves));
  layerMetric(layers, "sim", "sim.iters_per_resolve", "count",
              ratio(sum(counted, &LayerSample::iterations), resolves));
  layerMetric(layers, "sim", "sim.solve_us_per_resolve", "us",
              1e6 * ratio(solve, sum(samples, &LayerSample::resolves)));
  layerMetric(layers, "sim", "sim.loop_self_ms_per_run", "ms", 1e3 * med(samples, loopSelf));
  double loopTotal = 0.0;
  for (const auto& s : samples) loopTotal += loopSelf(s);
  layerMetric(layers, "sim", "sim.loop_self_share", "ratio", ratio(loopTotal, repTotal));
  layerMetric(layers, "sim", "sim.flows_per_run", "count", perRun(&LayerSample::flowsStarted));
  layerMetric(layers, "sim", "sim.cancel_ratio", "ratio",
              ratio(sum(counted, &LayerSample::flowsCancelled),
                    sum(counted, &LayerSample::flowsStarted)));
  layerMetric(layers, "beegfs", "beegfs.hedges_per_run", "count", perRun(&LayerSample::hedges));
  layerMetric(layers, "beegfs", "beegfs.hedge_win_ratio", "ratio",
              ratio(sum(counted, &LayerSample::hedgeWins), sum(counted, &LayerSample::hedges)));
  layerMetric(layers, "beegfs", "beegfs.hedge_dup_mib_per_run", "MiB",
              perRun(&LayerSample::hedgeDupMiB));
  layerMetric(layers, "beegfs", "beegfs.failovers_per_run", "count",
              perRun(&LayerSample::failovers));
  layerMetric(layers, "control", "control.health_samples_per_run", "count",
              perRun(&LayerSample::healthSamples));
  layerMetric(layers, "control", "control.quarantines_per_run", "count",
              perRun(&LayerSample::quarantines));
  layerMetric(layers, "qos", "qos.deferrals_per_run", "count", perRun(&LayerSample::deferrals));
  layerMetric(layers, "qos", "qos.deferral_ratio", "ratio",
              ratio(sum(counted, &LayerSample::deferrals),
                    sum(counted, &LayerSample::flowsStarted)));
  layerMetric(layers, "meta", "meta.ops_per_run", "count", perRun(&LayerSample::metaOps));
  layerMetric(layers, "meta", "meta.host_us_per_op", "us",
              1e6 * ratio(sum(samples, &LayerSample::metaPhase),
                          sum(samples, &LayerSample::metaOps)));
  layerMetric(layers, "trace", "trace.overhead_frac", "ratio",
              ratio(median(tracedSeconds), median(untracedSeconds)) - 1.0);
  JsonObject layerDoc;
  for (auto& [layer, list] : layers) layerDoc[layer] = std::move(list);
  return JsonObject{{"metrics", JsonArray{}}, {"layers", layerDoc}};
}

int run(const Options& o) {
  const auto expected = loadReference(o.reference, o.workload);
  if (o.printDigest) {
    Tally tally;
    const auto digest = referenceDigest(makeWorkload(o.workload), tally);
    std::printf("%s\n", digest.c_str());
    return tally.failed == 0 ? 0 : 1;
  }

  Tally setupTally;
  SpeedProbe probe;
  // Thread-CPU seconds of one set-up, scaled like a batch by the probes
  // around it.
  const auto timedSetUp = [&](Workload& w) {
    const double before = probe.measure();
    const double t0 = threadCpuSeconds();
    w = setUp(o, expected, setupTally);
    const double seconds = threadCpuSeconds() - t0;
    return seconds * kProbeReferenceSeconds / (0.5 * (before + probe.measure()));
  };
  Workload w;
  const double firstSetUp = timedSetUp(w);
  Tally tally;
  auto doc = o.trace ? traced(o, w, tally)
                     : endToEnd(o, w, {firstSetUp},
                                [&] {
                                  Workload again;
                                  return timedSetUp(again);
                                },
                                probe, tally);
  const bool correct = setupTally.failed == 0 && tally.failed == 0;
  JsonArray failures = setupTally.failures;
  failures.insert(failures.end(), tally.failures.begin(), tally.failures.end());
  doc["bench"] = "campaign_bench";
  doc["workload"] = o.workload;
  doc["seed"] = static_cast<double>(o.seed);
  doc["mode"] = o.trace ? "trace" : "e2e";
  doc["seconds"] = o.seconds;
  doc["correct"] = correct;
  doc["attempted"] = static_cast<double>(tally.attempted);
  doc["failed"] = static_cast<double>(tally.failed);
  doc["failures"] = failures;
  doc["reference_checked"] = !expected.empty();
  if (!o.spansOut.empty()) doc["spans"] = o.spansOut;
  std::printf("%s\n", JsonValue(doc).dump().c_str());
  return 0;
}

}  // namespace
}  // namespace campaign_bench

int main(int argc, char** argv) {
  try {
    return campaign_bench::run(campaign_bench::parseOptions(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}

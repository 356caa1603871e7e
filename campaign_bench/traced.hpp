// The traced run: each workload assembled from the layers' public entry
// points, with one span per call into a layer and counts from a
// benchmark-owned FluidObserver.
//
// The composition repeats, step by step, what harness::runOnce and
// harness::runConcurrent do (same rng splits, same construction and attach
// order), so for the same planned repetition it must reproduce the untraced
// outputs bit for bit; the benchmark checks that on every traced repetition.
// Spans stay in memory until SpanLog::writeChromeTrace at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/concurrent.hpp"
#include "harness/run.hpp"
#include "outputs.hpp"
#include "workloads.hpp"

namespace campaign_bench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    long rep;  // -1 = set-up
  };

  /// Open a span; returns its id (index into spans()).
  int open(const char* name, int parent, long rep);
  void close(int id);
  double seconds(int id) const { return secondsBetween(spans_[id].start, spans_[id].end); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (one complete "X" event per span; the parent
  /// span id and the repetition ride in args).  Returns false on I/O error.
  bool writeChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Per-repetition counts and host times of one traced repetition.
struct LayerSample {
  // Host seconds.
  double rep = 0.0;          // the whole composition
  double build = 0.0;        // Deployment + FileSystem construction
  double launch = 0.0;       // launchIor (+ launchMdtest) calls
  double run = 0.0;          // FluidSimulator::run
  double solve = 0.0;        // FluidSimulator::solveSeconds (profiling on)
  double observer = 0.0;     // the benchmark's own observer callbacks
  double nested = 0.0;       // layer calls made from inside sim.run
  double metaPhase = 0.0;    // metadata-only stretches of sim.run
  // Solver.
  double resolves = 0.0;
  double iterations = 0.0;
  double solvedFlows = 0.0;  // flows handed to the solver, summed over resolves
  // Flows.
  double flowsStarted = 0.0;
  double flowsCancelled = 0.0;
  double dataBytesLanded = 0.0;
  // Client chunk logic.
  double hedges = 0.0;
  double hedgeWins = 0.0;
  double hedgeDupMiB = 0.0;
  double failovers = 0.0;
  // Controllers.
  double healthSamples = 0.0;
  double quarantines = 0.0;
  // QoS.
  double deferrals = 0.0;
  // Metadata.
  double metaOps = 0.0;
};

struct TracedRep {
  RepOutput output;
  std::vector<std::string> errors;  // correctness-check violations
  LayerSample sample;
};

/// Run one planned repetition through the traced composition.
TracedRep tracedRep(const Workload& workload, const PlannedRep& planned, SpanLog& log,
                    long rep);

}  // namespace campaign_bench

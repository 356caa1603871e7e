// Deterministic parallel execution primitives for the harness.
//
// Every repetition of a campaign is an independent, seed-isolated simulation
// (runConcurrent builds its own FluidSimulator/Deployment/FileSystem and derives
// all randomness from the planned per-run seed), so a campaign parallelizes
// across worker threads without any sharing.  The contract everything here
// upholds: the observable result is *bitwise identical* to serial execution
// -- work is distributed dynamically, but results are committed strictly in
// plan/index order, one at a time, so ResultStores, annotator state and
// reductions never see thread scheduling.
//
// No external dependencies: std::thread plus an atomic work index.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace beesim::harness {

/// Worker-thread count used when the caller does not specify one: the
/// BEESIM_JOBS environment variable if set (0 = all hardware threads),
/// otherwise 1 (serial).
std::size_t defaultJobs();

/// Resolve a jobs request: 0 means "all hardware threads", anything else is
/// taken literally.
std::size_t resolveJobs(std::size_t jobs);

/// Progress snapshot delivered while a campaign executes.  Counts advance in
/// commit (= plan) order; timings are wall clock.
struct CampaignProgress {
  std::size_t completed = 0;       ///< runs committed so far
  std::size_t total = 0;           ///< planned runs
  double elapsedSeconds = 0.0;     ///< wall clock since the campaign started
  double etaSeconds = 0.0;         ///< projected remaining wall clock
  double slowestRunSeconds = 0.0;  ///< wall time of the slowest single run so far
  std::string slowestConfig;       ///< factor labels of that slowest run
};

/// Progress callback.  Invoked in commit (= plan) order and never
/// concurrently, but at jobs > 1 possibly from a worker thread; the final
/// call (completed == total) always fires.
using ProgressFn = std::function<void(const CampaignProgress&)>;

/// Aggregate profiling counters of a whole campaign, accumulated in commit
/// order (so the totals are independent of --jobs, except for the wall-clock
/// fields, which measure the host).
struct CampaignTotals {
  std::size_t runs = 0;
  /// Sum of per-run solver resolves / iterations.
  std::size_t resolves = 0;
  std::size_t solverIterations = 0;
  /// Sum and max of per-run wall time (sum > campaign wall when parallel).
  double runWallSeconds = 0.0;
  double maxRunWallSeconds = 0.0;
  /// Sum of wall time inside the rate solver (0 unless runs profiled).
  double solveSeconds = 0.0;
  /// End-to-end wall time of executeCampaign.
  double campaignWallSeconds = 0.0;
};

/// Execution knobs threaded from --jobs / BEESIM_JOBS.
struct ExecutorOptions {
  /// Worker threads: 1 = every run inline on the calling thread, 0 = all
  /// hardware threads, N = up to N workers.  Rows, annotator and progress
  /// calls stay serialized and in plan order either way.
  std::size_t jobs = defaultJobs();
  /// Optional progress reporting (see ProgressFn).  nullptr disables.
  ProgressFn onProgress;
  /// Minimum wall-clock spacing between onProgress calls.
  double progressIntervalSeconds = 0.5;
  /// When non-null, filled with the campaign's aggregate profiling counters
  /// (overwritten, not accumulated across campaigns).
  CampaignTotals* totals = nullptr;
};

/// Standard reporter: one continuously-rewritten status line on stderr with
/// runs completed, ETA and the slowest configuration seen so far.
ProgressFn stderrProgress(const std::string& label);

/// Run body(i) for every i in [0, count) on up to `jobs` threads (0 = all
/// hardware threads; <=1 runs inline).  Indices are handed out dynamically;
/// the execution order is unspecified, so body(i) must depend only on i.
/// The first exception thrown by any body is rethrown on the calling thread
/// once all workers have stopped.
void parallelFor(std::size_t count, std::size_t jobs,
                 const std::function<void(std::size_t)>& body);

/// Deterministic parallel map: out[i] = fn(i).  The output is independent of
/// `jobs` because each slot is written exactly once from its own index, so a
/// serial fold over the returned vector reproduces the jobs=1 result exactly.
template <typename T, typename Fn>
std::vector<T> parallelMap(std::size_t count, std::size_t jobs, Fn&& fn) {
  std::vector<T> out(count);
  parallelFor(count, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace beesim::harness

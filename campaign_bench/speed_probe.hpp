// Host-speed probe for the end-to-end timings.
//
// On a shared host the speed of this process drifts by tens of percent over
// seconds to minutes, as neighbours load the caches and sibling hardware
// threads.  The probe is a fixed kernel, independent of the simulator, that
// exercises what the simulator spends its time on: sorting doubles,
// allocating and walking tree nodes, and a max-min progressive-filling loop
// over flows and resources.  The benchmark runs it between campaign batches
// and scales each batch's host times by kProbeReferenceSeconds over the mean
// of the two probes around the batch, so the reported times read as on a host
// running at reference speed.  A change to the simulator moves the batch
// times and not the probe, so it still shows in full.
#pragma once

#include <cstdint>
#include <vector>

namespace campaign_bench {

/// CPU time of the calling thread, in seconds.  At --jobs 1 every
/// repetition runs on the calling thread; unlike the wall clock, this does
/// not count the time the thread waits for a core.
double threadCpuSeconds();

/// The probe's median thread-CPU time on the reference host (a 4-vCPU Intel
/// Xeon guest, RelWithDebInfo build) when it was otherwise idle.
constexpr double kProbeReferenceSeconds = 7.0e-3;

class SpeedProbe {
 public:
  SpeedProbe();

  /// Runs the kernel once; returns its thread-CPU seconds.
  double measure();

 private:
  std::vector<double> keys_;
  std::vector<double> sorted_;
};

}  // namespace campaign_bench

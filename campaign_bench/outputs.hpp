// What one repetition produced, and the checks every repetition must pass.
//
// A repetition's simulated outputs are flattened into a vector of numbers in
// a fixed order.  Two uses:
//   * exact equality (bit patterns) between the traced and the untraced run
//     of the same planned repetition;
//   * a digest of the values printed at 6 decimals (the tolerance golden CSVs
//     are held to), compared against the one recorded for the default seed.
#pragma once

#include <string>
#include <vector>

#include "harness/concurrent.hpp"
#include "harness/run.hpp"
#include "workloads.hpp"

namespace campaign_bench {

struct RepOutput {
  /// Simulated results (bandwidths, times, bytes, feature counters).
  std::vector<double> results;
  /// Solver work counters; compared exactly but kept out of the digest, so
  /// a solver change that keeps results at 6 decimals keeps the digest.
  std::vector<double> work;
};

RepOutput outputOf(const beesim::harness::RunRecord& record);
RepOutput outputOf(const beesim::harness::ConcurrentResult& result);

/// Bitwise equality of both vectors.
bool sameBits(const RepOutput& a, const RepOutput& b);

/// Incremental 64-bit FNV-1a digest over results printed at 6 decimals.
class Digest {
 public:
  void add(const RepOutput& output);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Correctness checks of one repetition; returns one message per violation
/// (empty = correct):
///   * every application finished, unaborted, with all planned bytes;
///   * the reported bandwidth / Equation-1 aggregate matches the per-app
///     bytes and times;
///   * an mdtest phase served 3 x ranks x files operations on its MDTs;
///   * QoS issued no more than burst + rate*t + borrowed, and charged every
///     planned byte exactly once.
std::vector<std::string> checkRep(const Workload& workload, const PlannedRep& planned,
                                  const beesim::harness::RunRecord& record);
std::vector<std::string> checkRep(const Workload& workload, const PlannedRep& planned,
                                  const beesim::harness::ConcurrentResult& result);

}  // namespace campaign_bench

// The paper's execution protocol (Section III-C), reimplemented over
// virtual time:
//
//   1. list all benchmark runs (`repetitions` of each configuration);
//   2. divide the list into blocks of ten executions;
//   3. execute the blocks in random order, one run at a time;
//   4. impose a random 1-30 minute wait between blocks.
//
// In simulation, runs do not interfere through persistent hardware state
// (each gets a fresh deployment), so the protocol's effect is carried by
// (a) a distinct seed per run and (b) a distinct virtual *system time*
// per run -- the device-noise and environment processes are anchored to
// that time, so spacing runs out in time diversifies the system states
// they sample, exactly what the paper's waits are for.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace beesim::harness {

/// Runs per block (step 2).
inline constexpr std::size_t kProtocolBlockSize = 10;
/// Bounds of the uniform wait between blocks (step 4): 1 to 30 minutes.
inline constexpr util::Seconds kProtocolMinWait = 60.0;
inline constexpr util::Seconds kProtocolMaxWait = 1800.0;
/// Nominal duration budgeted per run when laying runs out in time (the
/// paper's runs take tens of seconds; the exact value only phases noise).
inline constexpr util::Seconds kNominalRunDuration = 60.0;

struct ProtocolOptions {
  std::size_t repetitions = 100;
};

/// One planned execution.
struct PlannedRun {
  std::size_t configIndex = 0;   // which experimental configuration
  std::size_t repetition = 0;    // 0-based repetition of that configuration
  std::uint64_t seed = 0;        // per-run RNG seed
  util::Seconds systemTime = 0;  // virtual time the run starts at
};

/// Build the full execution plan for `configCount` configurations.
/// Deterministic given `rng`'s state.
std::vector<PlannedRun> buildProtocolPlan(std::size_t configCount, const ProtocolOptions& options,
                                          util::Rng& rng);

}  // namespace beesim::harness

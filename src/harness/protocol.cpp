#include "harness/protocol.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace beesim::harness {

std::vector<PlannedRun> buildProtocolPlan(std::size_t configCount, const ProtocolOptions& options,
                                          util::Rng& rng) {
  BEESIM_ASSERT(configCount >= 1, "protocol needs at least one configuration");
  BEESIM_ASSERT(options.repetitions >= 1, "protocol needs at least one repetition");

  // Step 1: the full run list, configuration-major.
  std::vector<PlannedRun> runs;
  runs.reserve(configCount * options.repetitions);
  for (std::size_t c = 0; c < configCount; ++c) {
    for (std::size_t r = 0; r < options.repetitions; ++r) {
      PlannedRun run;
      run.configIndex = c;
      run.repetition = r;
      run.seed = rng.bits();
      runs.push_back(run);
    }
  }

  // Step 2: blocks of kProtocolBlockSize consecutive runs.
  const std::size_t blockCount = (runs.size() + kProtocolBlockSize - 1) / kProtocolBlockSize;
  std::vector<std::size_t> blockOrder(blockCount);
  for (std::size_t b = 0; b < blockCount; ++b) blockOrder[b] = b;

  // Step 3: shuffle the block execution order.
  rng.shuffle(blockOrder);

  // Step 4: lay blocks out in virtual time with random waits between them.
  std::vector<PlannedRun> plan;
  plan.reserve(runs.size());
  util::Seconds clock = 0.0;
  for (std::size_t i = 0; i < blockOrder.size(); ++i) {
    if (i > 0) clock += rng.uniform(kProtocolMinWait, kProtocolMaxWait);
    const std::size_t begin = blockOrder[i] * kProtocolBlockSize;
    const std::size_t end = std::min(begin + kProtocolBlockSize, runs.size());
    for (std::size_t r = begin; r < end; ++r) {
      PlannedRun run = runs[r];
      run.systemTime = clock;
      clock += kNominalRunDuration;
      plan.push_back(run);
    }
  }
  return plan;
}

}  // namespace beesim::harness

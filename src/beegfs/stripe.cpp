#include "beegfs/stripe.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace beesim::beegfs {

StripePattern::StripePattern(std::vector<std::size_t> targets, util::Bytes chunkSize)
    : targets_(std::move(targets)), chunkSize_(chunkSize) {
  BEESIM_ASSERT(!targets_.empty(), "stripe pattern needs at least one target");
  BEESIM_ASSERT(chunkSize_ > 0, "chunk size must be positive");
  // Targets must be distinct: BeeGFS never stripes a file twice over the
  // same target.
  auto sorted = targets_;
  std::sort(sorted.begin(), sorted.end());
  BEESIM_ASSERT(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                "stripe pattern targets must be distinct");
}

std::uint64_t countCongruent(std::uint64_t first, std::uint64_t last, std::uint64_t modulus,
                             std::uint64_t residue) {
  BEESIM_ASSERT(modulus > 0, "modulus must be positive");
  BEESIM_ASSERT(residue < modulus, "residue must be < modulus");
  if (first > last) return 0;
  // Count of j <= x with j % m == r is floor((x - r) / m) + 1 when x >= r.
  auto upTo = [&](std::uint64_t x) -> std::uint64_t {
    if (x < residue) return 0;
    return (x - residue) / modulus + 1;
  };
  const std::uint64_t below = first == 0 ? 0 : upTo(first - 1);
  return upTo(last) - below;
}

std::vector<util::Bytes> StripePattern::bytesPerTarget(util::Bytes offset,
                                                       util::Bytes length) const {
  const std::size_t k = targets_.size();
  std::vector<util::Bytes> perTarget(k, 0);
  if (length == 0) return perTarget;

  const util::Bytes end = offset + length;
  const std::uint64_t firstChunk = offset / chunkSize_;
  const std::uint64_t lastChunk = (end - 1) / chunkSize_;

  if (firstChunk == lastChunk) {
    perTarget[firstChunk % k] = length;
    return perTarget;
  }

  // Partial head chunk.
  const util::Bytes headBytes = (firstChunk + 1) * chunkSize_ - offset;
  perTarget[firstChunk % k] += headBytes;
  // Partial (or full) tail chunk.
  const util::Bytes tailBytes = end - lastChunk * chunkSize_;
  perTarget[lastChunk % k] += tailBytes;

  // Full chunks strictly between head and tail, distributed by residue.
  if (lastChunk > firstChunk + 1) {
    const std::uint64_t a = firstChunk + 1;
    const std::uint64_t b = lastChunk - 1;
    for (std::size_t i = 0; i < k; ++i) {
      // Residues cycle over chunk numbers; slot i holds chunks == i (mod k)
      // only when the pattern starts at chunk 0 -- which it does: BeeGFS maps
      // chunk number c to pattern slot c % k.
      perTarget[i] += countCongruent(a, b, k, i) * chunkSize_;
    }
  }
  return perTarget;
}

}  // namespace beesim::beegfs

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

util::Bytes StripePattern::bytesOnSlot(util::Bytes offset, util::Bytes length,
                                       std::size_t slot) const {
  const std::size_t k = targets_.size();
  if (length == 0) return 0;

  const util::Bytes end = offset + length;
  const std::uint64_t firstChunk = offset / chunkSize_;
  const std::uint64_t lastChunk = (end - 1) / chunkSize_;

  if (firstChunk == lastChunk) return firstChunk % k == slot ? length : 0;

  util::Bytes bytes = 0;
  // Partial head chunk.
  if (firstChunk % k == slot) bytes += (firstChunk + 1) * chunkSize_ - offset;
  // Partial (or full) tail chunk.
  if (lastChunk % k == slot) bytes += end - lastChunk * chunkSize_;
  // Full chunks strictly between head and tail.  BeeGFS maps chunk number c
  // to pattern slot c % k, so the slot holds the chunks == slot (mod k).
  if (lastChunk > firstChunk + 1) {
    bytes += countCongruent(firstChunk + 1, lastChunk - 1, k, slot) * chunkSize_;
  }
  return bytes;
}

std::vector<util::Bytes> StripePattern::bytesPerTarget(util::Bytes offset,
                                                       util::Bytes length) const {
  std::vector<util::Bytes> perTarget(targets_.size());
  for (std::size_t i = 0; i < perTarget.size(); ++i) {
    perTarget[i] = bytesOnSlot(offset, length, i);
  }
  return perTarget;
}

}  // namespace beesim::beegfs

// File striping: mapping byte ranges of a file onto storage targets.
//
// BeeGFS splits a file into fixed-size chunks distributed cyclically over
// the pattern's target list (Section II).  The math here answers the only
// question the fluid model needs: given a contiguous byte range, how many
// bytes land on each target?  Closed-form (no per-chunk loop), validated
// against a brute-force reference in the tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace beesim::beegfs {

class StripePattern {
 public:
  /// `targets`: flat target indices in pattern order; `chunkSize` > 0.
  StripePattern(std::vector<std::size_t> targets, util::Bytes chunkSize);

  std::size_t stripeCount() const { return targets_.size(); }
  util::Bytes chunkSize() const { return chunkSize_; }
  const std::vector<std::size_t>& targets() const { return targets_; }

  /// Bytes of [offset, offset+length) stored on pattern slot `slot` (the
  /// slot of targets()[slot]).  O(1), no allocation.
  util::Bytes bytesOnSlot(util::Bytes offset, util::Bytes length, std::size_t slot) const;

  /// bytesOnSlot for every slot (result[i] belongs to targets()[i]).  Sum
  /// equals length.
  std::vector<util::Bytes> bytesPerTarget(util::Bytes offset, util::Bytes length) const;

 private:
  std::vector<std::size_t> targets_;
  util::Bytes chunkSize_;
};

/// Number of integers j in [first, last] with j % modulus == residue.
/// (Exposed for tests; used by the closed-form striping math.)
std::uint64_t countCongruent(std::uint64_t first, std::uint64_t last, std::uint64_t modulus,
                             std::uint64_t residue);

}  // namespace beesim::beegfs

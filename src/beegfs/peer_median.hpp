// Exclude-self lower median over a sorted snapshot (DESIGN.md §2.9).
//
// The hedge lag check compares a chunk's best-leg rate against the lower
// median of every *other* in-flight chunk's.  FileSystem keeps one sorted
// snapshot of all tracked chunks' rates; removing one copy of the caller's
// own value leaves exactly the old per-check peer multiset, so the median is
// picked by index instead of by re-scanning and re-sorting the peers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>

#include "util/error.hpp"

namespace beesim::beegfs {

/// Lower median (element (m-1)/2 of m sorted values) of `sorted` with one
/// copy of `self` removed; std::nullopt when nothing remains.  `sorted` must
/// be ascending and contain `self`.  O(log n).
inline std::optional<double> lowerMedianExcludingSelf(std::span<const double> sorted,
                                                      double self) {
  if (sorted.size() < 2) return std::nullopt;
  const auto pos = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), self) - sorted.begin());
  BEESIM_ASSERT(pos < sorted.size() && sorted[pos] == self,
                "peer snapshot does not contain the caller's own rate");
  // Dropping index `pos` shifts every later element down by one.
  const std::size_t k = (sorted.size() - 2) / 2;
  return sorted[k < pos ? k : k + 1];
}

}  // namespace beesim::beegfs

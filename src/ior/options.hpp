// IOR-style benchmark options.
//
// We model the subset of IOR (v3.4) the paper exercises plus the N-N mode it
// names as future work:
//   -b blockSize   contiguous bytes per rank (per segment)
//   -t transferSize
//   -s segments
//   -F             file-per-process (N-N) instead of shared file (N-1)
//   -w / -r        write / read phase
// The paper's configuration: POSIX, N-1 shared file, contiguous, 1 MiB
// transfers, 32 GiB total, no "-i" repetitions (the harness repeats whole
// executions instead, Section III-B/C).
#pragma once

#include <string>

#include "util/units.hpp"

namespace beesim::ior {

enum class AccessPattern {
  kSharedFile,      // N-1 (paper's choice, limits metadata influence)
  kFilePerProcess,  // N-N (-F; paper future work)
};

enum class Operation { kWrite, kRead };

struct IorOptions {
  util::Bytes blockSize = util::kGiB;       // -b
  util::Bytes transferSize = util::kMiB;    // -t
  int segments = 1;                         // -s
  AccessPattern pattern = AccessPattern::kSharedFile;
  Operation operation = Operation::kWrite;
  std::string testFile = "/beegfs/ior.dat";

  /// Total bytes moved by `ranks` processes.
  util::Bytes totalBytes(int ranks) const;

  /// Offset of rank `rank`'s block in segment `segment` (N-1 layout:
  /// segments are super-blocks of ranks*blockSize).
  util::Bytes rankSegmentOffset(int rank, int ranks, int segment) const;

  /// Validate; throws ConfigError on nonsense (zero sizes, transfer not
  /// dividing block, ...).
  void validate() const;

  /// Render as an IOR-like command-line string (for traces and tables).
  /// The API is always POSIX, the paper's choice.
  std::string describe() const;
};

/// Per-rank block size needed so that `ranks` ranks move `total` bytes with
/// one segment (the paper keeps the total at 32 GiB and divides it among
/// processes).  Throws ConfigError if not divisible.
util::Bytes blockSizeForTotal(util::Bytes total, int ranks);

}  // namespace beesim::ior

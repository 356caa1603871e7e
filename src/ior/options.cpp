#include "ior/options.hpp"

#include "util/error.hpp"

namespace beesim::ior {

util::Bytes IorOptions::totalBytes(int ranks) const {
  BEESIM_ASSERT(ranks >= 1, "need at least one rank");
  return blockSize * static_cast<util::Bytes>(segments) * static_cast<util::Bytes>(ranks);
}

util::Bytes IorOptions::rankSegmentOffset(int rank, int ranks, int segment) const {
  BEESIM_ASSERT(rank >= 0 && rank < ranks, "rank out of range");
  BEESIM_ASSERT(segment >= 0 && segment < segments, "segment out of range");
  if (pattern == AccessPattern::kFilePerProcess) {
    // Each rank owns its file: segments are laid out back to back.
    return static_cast<util::Bytes>(segment) * blockSize;
  }
  return (static_cast<util::Bytes>(segment) * ranks + static_cast<util::Bytes>(rank)) *
         blockSize;
}

void IorOptions::validate() const {
  if (blockSize == 0) throw util::ConfigError("IOR: block size must be > 0");
  if (transferSize == 0) throw util::ConfigError("IOR: transfer size must be > 0");
  if (segments < 1) throw util::ConfigError("IOR: segments must be >= 1");
  if (blockSize % transferSize != 0) {
    throw util::ConfigError("IOR: block size must be a multiple of the transfer size");
  }
  if (testFile.empty() || testFile.front() != '/') {
    throw util::ConfigError("IOR: test file path must be absolute");
  }
}

std::string IorOptions::describe() const {
  std::string out = "ior -a POSIX";
  out += operation == Operation::kWrite ? " -w" : " -r";
  out += " -b " + util::formatBytes(blockSize);
  out += " -t " + util::formatBytes(transferSize);
  out += " -s " + std::to_string(segments);
  if (pattern == AccessPattern::kFilePerProcess) out += " -F";
  out += " -o " + testFile;
  return out;
}

util::Bytes blockSizeForTotal(util::Bytes total, int ranks) {
  BEESIM_ASSERT(ranks >= 1, "need at least one rank");
  if (total % static_cast<util::Bytes>(ranks) != 0) {
    throw util::ConfigError("total data size is not divisible by the rank count");
  }
  return total / static_cast<util::Bytes>(ranks);
}

}  // namespace beesim::ior

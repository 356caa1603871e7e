#include "beegfs/mdshard.hpp"

#include "util/error.hpp"

namespace beesim::beegfs {

std::uint64_t mdPathHash(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (const char c : text) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::string_view mdParentDir(std::string_view path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string_view::npos) return path;
  // Keep "/" as the parent of top-level entries rather than "".
  return path.substr(0, slash == 0 ? 1 : slash);
}

MdShardChooser::MdShardChooser(MdShardKind kind, std::size_t mdtCount)
    : kind_(kind), count_(mdtCount) {
  BEESIM_ASSERT(mdtCount >= 1, "need at least one MDT");
}

std::size_t MdShardChooser::shardOf(std::string_view path) {
  if (count_ == 1) return 0;
  switch (kind_) {
    case MdShardKind::kHashDir:
      return static_cast<std::size_t>(mdPathHash(mdParentDir(path)) % count_);
    case MdShardKind::kRoundRobin: {
      const std::size_t shard = next_;
      next_ = (next_ + 1) % count_;
      return shard;
    }
  }
  BEESIM_ASSERT(false, "unknown shard kind");
  return 0;  // unreachable
}

}  // namespace beesim::beegfs

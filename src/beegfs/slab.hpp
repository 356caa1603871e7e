// Slab: a pool of entries with stable addresses, named by a 32-bit index
// plus a generation.
//
// Entries live in fixed-size blocks, so growing the slab never moves one and
// a reference taken before a call that may grow it stays valid.  Freed
// indices go on a free list and are reused last-freed first.  Freeing an
// entry bumps its generation, so a Ref kept past the free (a queued callback,
// a check entry) finds nothing instead of the slot's next occupant.  A new
// block's entries are value-initialised; a reused entry keeps what its last
// occupant left, so the caller resets the fields a new entry reads.  The
// slab frees its blocks with itself, or earlier through trim() once no entry
// is live.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace beesim::beegfs {

template <class T>
class Slab {
 public:
  struct Ref {
    std::uint32_t index = 0;
    std::uint32_t generation = 0;
    friend bool operator==(Ref a, Ref b) = default;
  };

  /// A reused or new entry, as its last occupant left it (see above).
  Ref acquire() {
    if (free_.empty()) grow();
    const std::uint32_t index = free_.back();
    free_.pop_back();
    auto& block = blocks_[index / kBlock];
    if (!block) block = std::make_unique<T[]>(kBlock);
    return Ref{index, generations_[index]};
  }

  /// Free the blocks of a slab with no live entry; they are allocated again
  /// as entries are acquired, lowest index first.  Generations are kept, so
  /// every Ref to a freed entry stays stale.
  void trim() {
    BEESIM_ASSERT(free_.size() == generations_.size(), "trimming a slab with live entries");
    for (auto& block : blocks_) block.reset();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      free_[i] = static_cast<std::uint32_t>(free_.size() - 1 - i);
    }
  }

  /// Free entry `index`; every Ref to it goes stale.
  void release(std::uint32_t index) {
    ++generations_[index];
    free_.push_back(index);
  }

  /// The entry `ref` names, or null once that entry was released.
  const T* find(Ref ref) const {
    return ref.index < generations_.size() && generations_[ref.index] == ref.generation
               ? &(*this)[ref.index]
               : nullptr;
  }
  T* find(Ref ref) { return const_cast<T*>(std::as_const(*this).find(ref)); }

  /// The entry `ref` names, which must be live.
  const T& live(Ref ref) const {
    const T* entry = find(ref);
    BEESIM_ASSERT(entry != nullptr, "stale slab reference");
    return *entry;
  }
  T& live(Ref ref) { return const_cast<T&>(std::as_const(*this).live(ref)); }

  const T& operator[](std::uint32_t index) const {
    return blocks_[index / kBlock][index % kBlock];
  }
  T& operator[](std::uint32_t index) { return blocks_[index / kBlock][index % kBlock]; }

 private:
  static constexpr std::uint32_t kBlock = 64;

  void grow() {
    const auto first = static_cast<std::uint32_t>(generations_.size());
    blocks_.emplace_back();
    generations_.resize(generations_.size() + kBlock, 0);
    // Lowest index on top, so a fresh slab hands out 0, 1, 2, ...
    for (std::uint32_t i = kBlock; i-- > 0;) free_.push_back(first + i);
  }

  std::vector<std::unique_ptr<T[]>> blocks_;
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint32_t> free_;
};

}  // namespace beesim::beegfs

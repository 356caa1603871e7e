// Heap-allocation probe for the zero-allocation tests.
//
// alloc_probe.cpp replaces the global allocator of the test binary that
// links it with a counting wrapper (one replacement per binary).  The
// counter only ticks while an AllocProbe is alive, so the rest of the suite
// is unaffected (beyond a predictable malloc passthrough).
#pragma once

#include <cstdint>

namespace beesim::test {

/// Counts the heap allocations made while it is alive (from any thread).
class AllocProbe {
 public:
  AllocProbe();
  ~AllocProbe();
  AllocProbe(const AllocProbe&) = delete;
  AllocProbe& operator=(const AllocProbe&) = delete;

  std::uint64_t count() const;
};

}  // namespace beesim::test

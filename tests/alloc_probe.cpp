// Counting replacement of the global allocator for AllocProbe (see
// alloc_probe.hpp).  Link into at most one target per test binary.
#include "alloc_probe.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> gAllocCount{0};
std::atomic<bool> gAllocProbeArmed{false};

void countIfArmed() {
  if (gAllocProbeArmed.load(std::memory_order_relaxed)) {
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

namespace beesim::test {

AllocProbe::AllocProbe() {
  gAllocCount.store(0, std::memory_order_relaxed);
  gAllocProbeArmed.store(true, std::memory_order_relaxed);
}

AllocProbe::~AllocProbe() { gAllocProbeArmed.store(false, std::memory_order_relaxed); }

std::uint64_t AllocProbe::count() const { return gAllocCount.load(std::memory_order_relaxed); }

}  // namespace beesim::test

// GCC's allocator-pairing analysis cannot see that these replacements keep
// new/delete consistent (both sides are malloc/free underneath).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
void* countingAlloc(std::size_t size) {
  countIfArmed();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return countingAlloc(size); }
void* operator new[](std::size_t size) { return countingAlloc(size); }
// The nothrow forms must be replaced alongside the throwing ones: libstdc++'s
// std::get_temporary_buffer (std::stable_sort) allocates through nothrow new
// but releases through plain operator delete, so a partial replacement pairs
// the default allocator with std::free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  countIfArmed();
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#pragma GCC diagnostic pop

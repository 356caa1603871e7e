// Strongly-typed units used throughout beesim.
//
// The paper reports bandwidth in MiB/s and data sizes in GiB; BeeGFS chunk
// sizes are KiB.  To keep every interface unambiguous we carry:
//   * Bytes      -- exact 64-bit byte counts,
//   * Seconds    -- simulated time, double precision,
//   * MiBps      -- bandwidth in MiB per second, double precision.
// Conversions are explicit and centralized here.
#pragma once

#include <cstdint>
#include <string>

namespace beesim::util {

/// Exact data size in bytes.
using Bytes = std::uint64_t;

/// Simulated time in seconds.
using Seconds = double;

/// Bandwidth in MiB/s (the unit used by every figure of the paper).
using MiBps = double;

inline constexpr Bytes kKiB = 1024ULL;
inline constexpr Bytes kMiB = 1024ULL * kKiB;
inline constexpr Bytes kGiB = 1024ULL * kMiB;
inline constexpr Bytes kTiB = 1024ULL * kGiB;

/// User-defined literals so test and bench code reads like the paper:
/// `32_GiB`, `512_KiB`, `1_MiB`.
namespace literals {
constexpr Bytes operator""_KiB(unsigned long long v) { return v * kKiB; }
constexpr Bytes operator""_MiB(unsigned long long v) { return v * kMiB; }
constexpr Bytes operator""_GiB(unsigned long long v) { return v * kGiB; }
constexpr Bytes operator""_TiB(unsigned long long v) { return v * kTiB; }
}  // namespace literals

/// Convert a byte count to MiB (fractional).
constexpr double toMiB(Bytes b) { return static_cast<double>(b) / static_cast<double>(kMiB); }

/// Convert a byte count to GiB (fractional).
constexpr double toGiB(Bytes b) { return static_cast<double>(b) / static_cast<double>(kGiB); }

/// Bandwidth of moving `bytes` in `elapsed` seconds, in MiB/s.
/// Precondition: elapsed > 0.
MiBps bandwidth(Bytes bytes, Seconds elapsed);

/// Render a byte count with a binary suffix ("32 GiB", "512 KiB", "17.5 MiB").
std::string formatBytes(Bytes b);

/// Render a bandwidth ("1460.3 MiB/s").
std::string formatBandwidth(MiBps bw);

/// Render a duration ("2.50 s", "12.0 ms", "3m12s").
std::string formatSeconds(Seconds s);

/// Parse sizes like "32GiB", "512KiB", "1MiB", "4096" (plain bytes).
/// Throws ConfigError on malformed input.
Bytes parseBytes(const std::string& text);

}  // namespace beesim::util

#include "util/units.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace beesim::util {

MiBps bandwidth(Bytes bytes, Seconds elapsed) {
  BEESIM_ASSERT(elapsed > 0.0, "bandwidth() needs a positive elapsed time");
  return toMiB(bytes) / elapsed;
}

namespace {

std::string formatWithSuffix(double value, const char* suffix) {
  char buf[64];
  if (value == std::floor(value) && value < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", value, suffix);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, suffix);
  }
  return buf;
}

}  // namespace

std::string formatBytes(Bytes b) {
  if (b >= kTiB && b % kTiB == 0) return formatWithSuffix(static_cast<double>(b / kTiB), "TiB");
  if (b >= kGiB) return formatWithSuffix(static_cast<double>(b) / static_cast<double>(kGiB), "GiB");
  if (b >= kMiB) return formatWithSuffix(static_cast<double>(b) / static_cast<double>(kMiB), "MiB");
  if (b >= kKiB) return formatWithSuffix(static_cast<double>(b) / static_cast<double>(kKiB), "KiB");
  return formatWithSuffix(static_cast<double>(b), "B");
}

std::string formatBandwidth(MiBps bw) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f MiB/s", bw);
  return buf;
}

std::string formatSeconds(Seconds s) {
  char buf[64];
  if (s < 0.001) {
    std::snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", s * 1e3);
  } else if (s < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.2f s", s);
  } else {
    const auto whole = static_cast<long>(s);
    std::snprintf(buf, sizeof(buf), "%ldm%02lds", whole / 60, whole % 60);
  }
  return buf;
}

Bytes parseBytes(const std::string& text) {
  if (text.empty()) throw ConfigError("parseBytes: empty size string");
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw ConfigError("parseBytes: cannot parse number in '" + text + "'");
  }
  if (value < 0.0) throw ConfigError("parseBytes: negative size '" + text + "'");
  // Skip whitespace between number and suffix.
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  std::string suffix = text.substr(pos);
  for (auto& c : suffix) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));

  double multiplier = 1.0;
  if (suffix.empty() || suffix == "b") {
    multiplier = 1.0;
  } else if (suffix == "k" || suffix == "kib" || suffix == "kb") {
    multiplier = static_cast<double>(kKiB);
  } else if (suffix == "m" || suffix == "mib" || suffix == "mb") {
    multiplier = static_cast<double>(kMiB);
  } else if (suffix == "g" || suffix == "gib" || suffix == "gb") {
    multiplier = static_cast<double>(kGiB);
  } else if (suffix == "t" || suffix == "tib" || suffix == "tb") {
    multiplier = static_cast<double>(kTiB);
  } else {
    throw ConfigError("parseBytes: unknown suffix '" + suffix + "' in '" + text + "'");
  }
  return static_cast<Bytes>(value * multiplier);
}

}  // namespace beesim::util

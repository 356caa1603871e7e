// Tiny command-line argument parser for the beesim CLI.
//
// Supports `--flag value`, `--flag=value` and boolean `--flag`; collects
// positionals.  Deliberately minimal -- no dependency, easily testable.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace beesim::cli {

class Args {
 public:
  /// Parse argv-style tokens (without the program/subcommand names).
  /// `booleanFlags` lists flags that take no value.
  Args(std::vector<std::string> tokens, std::vector<std::string> booleanFlags = {});

  /// Value of --name, if present.
  std::optional<std::string> get(const std::string& name) const;

  /// Typed access with defaults.  Throw util::ConfigError on malformed
  /// values (bad numbers, bad sizes).
  std::string getString(const std::string& name, const std::string& fallback) const;
  /// Integer; rejects trailing garbage ("4x") and values outside long's
  /// range ("99999999999999999999") with distinct errors.
  long getInt(const std::string& name, long fallback) const;
  /// Integer constrained to [min, max]; call sites that narrow the result
  /// (int, unsigned, size_t) use this so out-of-range input errors out
  /// instead of silently truncating or wrapping in the cast.
  long getInt(const std::string& name, long fallback, long min, long max) const;
  /// Non-negative integer (e.g. --jobs, --reps); rejects negatives.
  std::size_t getUnsigned(const std::string& name, std::size_t fallback) const;
  /// Finite double; rejects nan/inf (which std::stod would accept and which
  /// then bypass `<= 0` sanity guards, NaN comparing false to everything).
  double getDouble(const std::string& name, double fallback) const;
  util::Bytes getBytes(const std::string& name, util::Bytes fallback) const;
  /// true/1/yes -> true, false/0/no -> false, absent -> false; anything else
  /// throws instead of silently reading as false.
  bool getBool(const std::string& name) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Names of the supplied flags (without "--"), sorted.
  std::vector<std::string> flagNames() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace beesim::cli

// beesim CLI subcommands, dispatched by runCli so tests need no process.
//
// Every flag is one row of flagTable(); usage(), the parser's switch list and
// the generic checks (unknown flag, stray argument, value out of range,
// missing gate) derive from it.  A new flag is a row plus its reader.
#pragma once

#include <array>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cli/args.hpp"

namespace beesim::cli {

/// The commands, in usage() order.
inline constexpr std::array<std::string_view, 5> kCommandNames{
    "describe", "run", "sweep", "concurrent", "export-cluster"};

/// How a flag's value is parsed: a switch takes no separate value
/// (`--mirror`, `--mirror=false`); text is checked by its reader.
enum class FlagKind { kSwitch, kText, kInt, kReal, kBytes };

/// A numeric flag's range: [lo, hi], or (lo, hi) when `open`.
struct FlagRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool open = false;
};

/// One row of the flag table.
struct FlagSpec {
  std::string_view name;  ///< without the leading "--"
  unsigned commands;      ///< bit i: kCommandNames[i] takes the flag
  FlagKind kind;
  std::string_view arg;  ///< the value's placeholder in usage(): "N", "n1|nn"
  FlagRange range;
  /// The gate: when the flag is set, one of these flags must be set too.
  std::vector<std::string_view> gate;
  std::string_view help;  ///< one line
};

/// Every flag of every command, in usage() order.
const std::vector<FlagSpec>& flagTable();

/// Dispatch `beesim <subcommand> [flags...]`.  Returns the exit code;
/// prints usage on unknown subcommands.
int runCli(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err);

/// The usage text, rendered from flagTable().
std::string usage();

}  // namespace beesim::cli

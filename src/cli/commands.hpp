// beesim CLI subcommands.
//
// Each command is a plain function of (Args, ostream) so tests can drive
// it without a process; main.cpp only dispatches.  Shared flags:
//
//   --cluster plafrim1|plafrim2|catalyst|<file.json>   (default plafrim2)
//   --nodes N        compute nodes (default 16; overrides the factory size)
//   --seed S         root RNG seed (run, sweep, concurrent; default 2022)
//
// Commands:
//   describe                      print the topology and analytic bounds
//   run      [--ppn 8 --stripe 4 --total 32GiB --chooser rr --reps 10
//             --pattern n1|nn --op write|read]
//   sweep    [--reps 30 --ppn 8]  stripe-count sweep + advisor verdict
//   concurrent [--apps 2 --nodes-per-app 8 --stripe 4 --reps 10]
//   export-cluster --out FILE     dump the selected topology as JSON
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "cli/args.hpp"

namespace beesim::cli {

int cmdDescribe(const Args& args, std::ostream& out);
int cmdRun(const Args& args, std::ostream& out);
int cmdSweep(const Args& args, std::ostream& out);
int cmdConcurrent(const Args& args, std::ostream& out);
int cmdExportCluster(const Args& args, std::ostream& out);

/// Dispatch `beesim <subcommand> [flags...]`.  Returns the exit code;
/// prints usage on unknown subcommands.
int runCli(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err);

/// The usage text.
std::string usage();

}  // namespace beesim::cli

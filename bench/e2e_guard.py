#!/usr/bin/env python3
"""End-to-end performance guard: compare two beesim build trees.

Runs every leg (a paper-figure bench, an extension campaign or a CLI
campaign) the same number of times on a base and a head build tree,
alternating which side goes first so slow drift on the host cannot favour
either one, and prints host wall time per leg and side as
min / mean +- sd / max.  The guard fails when, on any leg,

  * the head's fastest run is more than 20% slower than the base's
    fastest run, or
  * the head's exit statuses differ from the base's (a leg that starts
    failing, or stops failing, is a behaviour change, not a speed change).

The minimum is the statistic because host noise (preemption, frequency
ramps) only ever makes a run slower.

Usage:
  python3 bench/e2e_guard.py BASE_BUILD HEAD_BUILD

Each build tree is a CMake build directory of this repository (for
example one configured with `cmake -B build -S .`).  Every run starts in a
fresh scratch directory, so the CSVs and traces the legs write go nowhere
near either tree.  Exit status: 0 pass, 1 fail, 2 usage error.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

# (name, argv relative to the build tree, extra environment).  Repetition
# counts keep each leg at 0.5-1 s of host time on a 4-core container:
# much shorter legs miss the 20% gate by host noise alone.  The QoS leg is a
# CLI campaign because ext_qos takes ~40 s even at BEESIM_REPS=2.
LEGS = [
    ("fig08", ["bench/fig08_alloc_s1"], {"BEESIM_REPS": "100"}),
    ("fig11", ["bench/fig11_nodes_stripes"], {"BEESIM_REPS": "100"}),
    ("fig12", ["bench/fig12_concurrent"], {"BEESIM_REPS": "20"}),
    ("ext_failslow", ["bench/ext_failslow"], {"BEESIM_REPS": "2"}),
    ("ext_rebalance", ["bench/ext_rebalance"], {"BEESIM_REPS": "10"}),
    ("qos_concurrent",
     ["src/cli/beesim", "concurrent", "--apps", "4", "--nodes-per-app", "8",
      "--stripe", "8", "--qos", "--qos-rate", "400", "--qos-borrow", "--reps", "40"], {}),
    # Stochastic fail-slow under the watchdog and the hedge lag check at one
    # 0.5 s cadence: the only leg whose chunks run both checks.
    ("gray_cli",
     ["src/cli/beesim", "run", "--cluster", "plafrim1", "--nodes", "8", "--stripe", "8",
      "--fail-slow", "5", "--fail-slow-mttr", "0.5", "--fault-mode", "degraded",
      "--io-timeout", "0.5", "--hedge", "--hedge-deadline", "0.5",
      "--suspect-ratio", "0.5", "--reps", "80"], {}),
    # The traced run replays the campaign's first run with the ring sink
    # attached and renders it to JSONL (131k records): about half the leg.
    ("ring_trace",
     ["src/cli/beesim", "run", "--cluster", "plafrim2", "--nodes", "1024",
      "--stripe", "8", "--reps", "2", "--trace", "trace.jsonl",
      "--trace-format", "ring"], {}),
    # The same run with the exact FlowTracer: its unbounded event log
    # rendered to JSONL and Chrome trace, plus the metrics series.
    ("full_trace",
     ["src/cli/beesim", "run", "--cluster", "plafrim2", "--nodes", "1024",
      "--stripe", "8", "--reps", "2", "--trace", "t.jsonl", "--trace-out", "t.json",
      "--metrics-out", "m.csv"], {}),
]

RUNS = 5  # per leg and side
TOLERANCE = 0.20  # allowed slowdown of the head minimum
TIMEOUT = 600.0  # seconds before one run counts as hung


def run_once(build, argv, env):
    """Run one leg in a scratch directory; return (seconds, exit status)."""
    exe = os.path.join(os.path.abspath(build), argv[0])
    with tempfile.TemporaryDirectory(prefix="e2e_guard_") as cwd:
        start = time.perf_counter()
        proc = subprocess.run([exe] + argv[1:], cwd=cwd, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - start, proc.returncode


def summary(times):
    return (f"{min(times):8.3f} / {statistics.mean(times):8.3f} +- "
            f"{statistics.stdev(times):6.3f} / {max(times):8.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="base build tree")
    parser.add_argument("head", help="head build tree")
    args = parser.parse_args()
    for build in (args.base, args.head):
        for _, argv, _ in LEGS:
            if not os.access(os.path.join(build, argv[0]), os.X_OK):
                parser.error(f"{build}: missing executable {argv[0]}")

    sides = {"base": args.base, "head": args.head}
    failed = []
    print(f"{'leg':<15} {'side':<5} {'min / mean +- sd / max (s)':>40}  exit")
    for name, argv, extra in LEGS:
        env = dict(os.environ, BEESIM_JOBS="1", **extra)
        times = {"base": [], "head": []}
        codes = {"base": set(), "head": set()}
        for i in range(RUNS):
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                seconds, code = run_once(sides[side], argv, env)
                times[side].append(seconds)
                codes[side].add(code)
        for side in ("base", "head"):
            print(f"{name:<15} {side:<5} {summary(times[side]):>40}  "
                  f"{','.join(map(str, sorted(codes[side])))}")
        ratio = min(times["head"]) / min(times["base"])
        verdict = "ok"
        if codes["head"] != codes["base"]:
            verdict = "FAIL: exit status differs"
        elif ratio > 1.0 + TOLERANCE:
            verdict = f"FAIL: head min is {100 * (ratio - 1):.1f}% slower"
        print(f"{name:<15} head/base min {ratio:.3f}  {verdict}")
        if verdict != "ok":
            failed.append(name)
    if failed:
        print(f"e2e guard FAIL ({TOLERANCE:.0%} tolerance): " + ", ".join(failed))
        return 1
    print(f"e2e guard PASS: {len(LEGS)} legs within {TOLERANCE:.0%} of the base")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end performance guard: compare two beesim build trees.

Runs every leg (a paper-figure bench, an extension campaign or a CLI
campaign) in alternating base/head pairs, swapping which side goes first
each pair so slow drift on the host cannot favour either one.  Per leg and
side it prints host wall time as min / mean +- sd / max and the median of
the run's CPU time (user + sys of the child, from its rusage).  The guard
fails when, on any leg,

  * the head's median CPU time is more than 20% above the base's, or
  * the head's exit statuses differ from the base's (a leg that starts
    failing, or stops failing, is a behaviour change, not a speed change).

CPU time is the statistic because on a shared host wall time also counts
the time a run waits for a core: a wall-time minimum over 5 runs moved by
up to 35% between guard runs of the same pair of builds, while the median
CPU time over 10 pairs stayed within 0.90-1.12 of the base on every leg.
Next to each leg's head/base ratio the guard prints the base side's own
spread (interquartile range of its CPU times over their median), so a leg
near the gate can be read against its noise.  CPU time still moves with
load from other processes, so run the guard on an otherwise idle host.

Per leg the guard also reports whether the head's stdout is byte-identical
to the base's ("varies" when the base's own runs disagree).  That line is
informational: a change may mean to alter output, so it never fails the
guard.

The legs named in SCALED also run at BEESIM_JOBS=4 next to each serial
run, on both sides.  Per side the guard prints the wall-time speedup
(median serial wall / median 4-job wall), the child-CPU ratio (median
4-job CPU / median serial CPU) and whether the 4-job stdout is
byte-identical to the serial one.  These numbers never affect the verdict.

Usage:
  python3 bench/e2e_guard.py BASE_BUILD HEAD_BUILD

Each build tree is a CMake build directory of this repository (for
example one configured with `cmake -B build -S .`).  Every run starts in a
fresh scratch directory, so the CSVs and traces the legs write go nowhere
near either tree.  Exit status: 0 pass, 1 fail, 2 usage error.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time

# Every gated leg pins one campaign thread: CPU time is compared per leg,
# and a default job count above 1 would add thread start-up and cache
# sharing to what the gate reads.
SERIAL = {"BEESIM_JOBS": "1"}

# (name, argv relative to the build tree, extra environment).  Repetition
# counts keep each leg at 0.5-1 s of host time on a 4-core container:
# much shorter legs are dominated by start-up and timer resolution.  The
# QoS leg is a CLI campaign because ext_qos takes ~40 s even at
# BEESIM_REPS=2.
LEGS = [
    ("fig08", ["bench/fig08_alloc_s1"], {**SERIAL, "BEESIM_REPS": "100"}),
    ("fig11", ["bench/fig11_nodes_stripes"], {**SERIAL, "BEESIM_REPS": "100"}),
    ("fig12", ["bench/fig12_concurrent"], {**SERIAL, "BEESIM_REPS": "20"}),
    ("ext_failslow", ["bench/ext_failslow"], {**SERIAL, "BEESIM_REPS": "2"}),
    ("ext_rebalance", ["bench/ext_rebalance"], {**SERIAL, "BEESIM_REPS": "10"}),
    ("qos_concurrent",
     ["src/cli/beesim", "concurrent", "--apps", "4", "--nodes-per-app", "8",
      "--stripe", "8", "--qos", "--qos-rate", "400", "--qos-borrow", "--reps", "40"], SERIAL),
    # Stochastic fail-slow under the watchdog and the hedge lag check at one
    # 0.5 s cadence: the only leg whose chunks run both checks.
    ("gray_cli",
     ["src/cli/beesim", "run", "--cluster", "plafrim1", "--nodes", "8", "--stripe", "8",
      "--fail-slow", "5", "--fail-slow-mttr", "0.5", "--fault-mode", "degraded",
      "--io-timeout", "0.5", "--hedge", "--hedge-deadline", "0.5",
      "--suspect-ratio", "0.5", "--reps", "160"], SERIAL),
    # The traced run replays the campaign's first run with the ring sink
    # attached and renders it to JSONL (131k records): about half the leg.
    ("ring_trace",
     ["src/cli/beesim", "run", "--cluster", "plafrim2", "--nodes", "1024",
      "--stripe", "8", "--reps", "2", "--trace", "trace.jsonl",
      "--trace-format", "ring"], SERIAL),
    # The same run with the exact FlowTracer: its unbounded event log
    # rendered to JSONL and Chrome trace, plus the metrics series.
    ("full_trace",
     ["src/cli/beesim", "run", "--cluster", "plafrim2", "--nodes", "1024",
      "--stripe", "8", "--reps", "2", "--trace", "t.jsonl", "--trace-out", "t.json",
      "--metrics-out", "m.csv"], SERIAL),
    # The queued metadata path: an mdtest phase on four hash-sharded MDTs
    # after each IOR run, one MDT flow per op whose start, completion
    # callback and next issue allocate nothing once warm.
    ("metadata_cli",
     ["src/cli/beesim", "run", "--cluster", "plafrim2", "--nodes", "16", "--stripe", "4",
      "--mdts", "4", "--meta-rate", "5000", "--md-ops", "64", "--reps", "30"], SERIAL),
]

# Legs also run at this job count to report campaign scaling (never gated).
SCALED = {"fig12", "ext_failslow"}
SCALED_ENV = {"BEESIM_JOBS": "4"}

PAIRS = 10  # alternating base/head pairs per leg
TOLERANCE = 0.20  # allowed rise of the head's median CPU time
TIMEOUT = 600.0  # seconds before one run is killed as hung


def run_once(build, argv, env):
    """Run one leg in a scratch directory.

    Returns (wall s, CPU s, exit status, SHA-256 of its stdout).
    """
    exe = os.path.join(os.path.abspath(build), argv[0])
    with tempfile.TemporaryDirectory(prefix="e2e_guard_") as cwd, \
            tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([exe] + argv[1:], cwd=cwd, env=env,
                                stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(TIMEOUT, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
        return wall, usage.ru_utime + usage.ru_stime, proc.returncode, digest


def stdout_verdict(digests, reference):
    """'identical' when one stdout matches the reference set, else why not."""
    if len(reference) > 1:
        return "varies"
    return "identical" if digests == reference else "differs"


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
    print(f"{'leg':<15} {'side':<5} {'wall min / mean +- sd / max (s)':>40}  "
          f"{'CPU median (s)':>14}  exit")
    for name, argv, extra in LEGS:
        env = dict(os.environ, **extra)
        walls = {"base": [], "head": []}
        cpus = {"base": [], "head": []}
        codes = {"base": set(), "head": set()}
        stdouts = {"base": set(), "head": set()}
        scaled = {side: {"walls": [], "cpus": [], "stdouts": set()} for side in sides}
        for i in range(PAIRS):
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                wall, cpu, code, digest = run_once(sides[side], argv, env)
                walls[side].append(wall)
                cpus[side].append(cpu)
                codes[side].add(code)
                stdouts[side].add(digest)
                if name in SCALED:
                    wall, cpu, _, digest = run_once(sides[side], argv,
                                                    dict(env, **SCALED_ENV))
                    scaled[side]["walls"].append(wall)
                    scaled[side]["cpus"].append(cpu)
                    scaled[side]["stdouts"].add(digest)
        for side in ("base", "head"):
            print(f"{name:<15} {side:<5} {summary(walls[side]):>40}  "
                  f"{statistics.median(cpus[side]):14.3f}  "
                  f"{','.join(map(str, sorted(codes[side])))}")
        base_median = statistics.median(cpus["base"])
        ratio = statistics.median(cpus["head"]) / base_median
        q1, _, q3 = statistics.quantiles(cpus["base"], n=4)
        spread = (q3 - q1) / base_median
        verdict = "ok"
        if codes["head"] != codes["base"]:
            verdict = "FAIL: exit status differs"
        elif ratio > 1.0 + TOLERANCE:
            verdict = f"FAIL: head median CPU is {100 * (ratio - 1):.1f}% higher"
        stdout = stdout_verdict(stdouts["head"], stdouts["base"])
        print(f"{name:<15} head/base median CPU {ratio:.3f}  "
              f"base IQR/median {spread:.3f}  stdout {stdout}  {verdict}")
        if name in SCALED:
            jobs = SCALED_ENV["BEESIM_JOBS"]
            for side in ("base", "head"):
                run = scaled[side]
                speedup = statistics.median(walls[side]) / statistics.median(run["walls"])
                cpu_ratio = statistics.median(run["cpus"]) / statistics.median(cpus[side])
                print(f"{name:<15} {side:<5} jobs={jobs} wall speedup {speedup:.2f}x  "
                      f"CPU ratio {cpu_ratio:.2f}  stdout vs jobs=1 "
                      f"{stdout_verdict(run['stdouts'], stdouts[side])}")
        if verdict != "ok":
            failed.append(name)
    if failed:
        print(f"e2e guard FAIL ({TOLERANCE:.0%} tolerance): " + ", ".join(failed))
        return 1
    print(f"e2e guard PASS: {len(LEGS)} legs within {TOLERANCE:.0%} of the base")
    return 0


if __name__ == "__main__":
    sys.exit(main())

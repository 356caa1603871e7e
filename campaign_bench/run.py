#!/usr/bin/env python3
"""Build and run the campaign benchmark for one named workload.

Usage, from the repository root:

  python3 campaign_bench/run.py --workload alloc_s1 --seed 7 --seconds 25 --trace 0
  python3 campaign_bench/run.py ... --out results/alloc_s1-7.json
  python3 campaign_bench/run.py --smoke

The first call builds the simulator libraries and the benchmark driver from
source (CMake, into $CARGO_TARGET_DIR or .bench_build).  A run prints every
metric by name with its unit, then, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 the per-layer ones, and
writes the traced run's spans (Chrome trace format) under the build
directory.  --out also saves the full result document, in the schema
compare.py reads.

--smoke runs every workload briefly with tracing on and asserts that each
repetition passes its correctness checks, that the traced run reproduces the
untraced outputs bitwise, and that each workload's dominant layer holds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must finish within this many seconds once the driver is built.
RUN_DEADLINE_S = 170

# Each workload's dominant layer, as checks on its traced per-layer metrics.
DOMINANT = {
    "alloc_s1": [("sim.solve_share", ">=", 0.8)],
    "tenants_s2": [("sim.solve_share", ">=", 0.5), ("qos.deferrals_per_run", ">", 0)],
    "gray_s1": [("sim.solve_share", "<=", 0.2), ("sim.loop_self_share", ">=", 0.5),
                ("beegfs.hedges_per_run", ">", 0)],
    "mdtest_s2": [("sim.solve_share", ">=", 0.5), ("meta.ops_per_run", ">=", 6144),
                  ("sim.resolves_per_run", ">=", 1000)],
}


def fail(message):
    print(f"campaign_bench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return ROOT / target / "campaign_bench"


def build():
    """Configure once, then (re)build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources next to {BENCH_DIR.name}/ (expected src/CMakeLists.txt)")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(out), "--target", "campaign_bench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "campaign_bench"


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_driver(binary, workload, seed, seconds, trace, spans=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--reference", str(BENCH_DIR / "reference.json")]
    if spans:
        cmd += ["--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {RUN_DEADLINE_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: driver exited with code {proc.returncode}")
    return json.loads(lines[-1])


def flat_metrics(doc):
    """name -> metric object, across the document's metrics and layers."""
    out = {m["name"]: m for m in doc["metrics"]}
    for layer in doc["layers"].values():
        out.update({m["name"]: m for m in layer})
    return out


def print_table(doc):
    print(f"campaign_bench {doc['workload']} seed={doc['seed']:.0f} mode={doc['mode']} "
          f"attempted={doc['attempted']:.0f} failed={doc['failed']:.0f} "
          f"correct={str(doc['correct']).lower()}")
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")
    for name, m in flat_metrics(doc).items():
        detail = ""
        if "percentile" in m:
            detail = f"  (p{m['percentile']:g}, {m['beyond']:.0f} of {m['reps']:.0f} samples beyond)"
        elif "reps" in m:
            detail = f"  (median of {m['reps']:.0f})"
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{detail}")


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def smoke(binary):
    failures = []
    for workload, checks in DOMINANT.items():
        doc = run_driver(binary, workload, seed=1, seconds=1, trace=True)
        print_table(doc)
        values = flat_metrics(doc)
        if not doc["correct"]:
            failures.append(f"{workload}: correctness checks failed")
        for name, op, bound in checks:
            value = values[name]["value"]
            ok = {">=": value >= bound, ">": value > bound, "<=": value <= bound}[op]
            if not ok:
                failures.append(f"{workload}: {name} = {value:.4g}, expected {op} {bound}")
    for failure in failures:
        print(f"SMOKE FAIL {failure}")
    print("SMOKE " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result document here")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.smoke:
        return smoke(binary)
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")
    end_to_end, per_layer = metric_specs()
    spans = None
    if args.trace:
        spans = build_dir() / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
    doc = run_driver(binary, args.workload, args.seed, args.seconds, args.trace, spans)
    print_table(doc)
    if args.out:
        doc["commit"] = git_commit()
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    values = flat_metrics(doc)
    wanted = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"driver did not report {', '.join(missing)}")
    result = {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two result sets of the campaign benchmark.

Usage:

  python3 campaign_bench/compare.py PARENT CHANGE [--json]

PARENT and CHANGE are result documents written by `run.py --out`, or
directories holding them (searched recursively).  Runs are grouped by
(workload, metric); for every pair the script prints each side's median and
quartiles and one verdict:

  better      the change's median is better, the change wins at least nine
              tenths of the seed-matched pairs, and the medians differ by
              more than the parent's own interquartile range;
  worse       the change's median is worse by more than the metric's bound;
  unresolved  a side's run-to-run spread (IQR / median) exceeds the bound,
              unless every change run beats every parent run;
  unchanged   otherwise.

End-to-end metrics use their bound from BENCHMARK.json.  Per-layer counts are
deterministic per seed and compare exactly; other per-layer metrics have no
bound and use the larger of the two sides' spreads as theirs (unresolved with
fewer than two runs a side).

Host speed drifts over minutes on a shared machine, so produce the two sets
with alternating parent and change runs on the same seeds; sets measured one
after the other can show a drift as a gain.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_docs(path):
    path = Path(path)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    docs = []
    for f in files:
        doc = json.loads(f.read_text())
        if doc.get("bench") == "campaign_bench":
            docs.append(doc)
    return docs


def samples(docs):
    """(workload, metric name) -> {seed: value}, plus metric units."""
    out, units = {}, {}
    for doc in docs:
        metrics = list(doc["metrics"])
        for layer in doc["layers"].values():
            metrics += layer
        for m in metrics:
            key = (doc["workload"], m["name"])
            out.setdefault(key, {})[int(doc["seed"])] = m["value"]
            units[m["name"]] = m["unit"]
    return out, units


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, better, bound, exact):
    """parent/change: {seed: value}.  Returns (verdict, relative change)."""
    a, b = list(parent.values()), list(change.values())
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    if exact:
        if med_a == med_b:
            return "unchanged", gain
        return ("better" if gain > 0 else "worse"), gain
    if bound is None:
        if min(len(a), len(b)) < 2:
            return ("unchanged" if med_a == med_b else "unresolved"), gain
        bound = max(spread(a), spread(b))
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if (spread(a) > bound or spread(b) > bound) and not all_better:
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    seeds = sorted(set(parent) & set(change))
    pairs = [(parent[s], change[s]) for s in seeds] or list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    q1_a, _, q3_a = quartiles(a)
    if gain > 0 and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > (q3_a - q1_a):
        return "better", gain
    return "unchanged", gain


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--json", action="store_true", help="print verdicts as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, units = samples(load_docs(args.parent))
    change, _ = samples(load_docs(args.change))

    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in direction:
            continue
        exact = units[name] == "count"
        v, gain = verdict(parent[key], change[key], direction[name], bounds.get(name), exact)
        q_a, q_b = quartiles(list(parent[key].values())), quartiles(list(change[key].values()))
        rows.append({"workload": workload, "metric": name, "unit": units[name],
                     "parent": {"q1": q_a[0], "median": q_a[1], "q3": q_a[2],
                                "runs": len(parent[key])},
                     "change": {"q1": q_b[0], "median": q_b[1], "q3": q_b[2],
                                "runs": len(change[key])},
                     "gain": gain, "verdict": v})
    if not rows:
        print("no (workload, metric) pair is present in both result sets", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    print(f"{'workload':11s} {'metric':32s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'gain':>8s}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:11s} {r['metric']:32s} "
              f"{p['median']:>12.5g} [{p['q1']:.4g}, {p['q3']:.4g}]".ljust(80) +
              f"{c['median']:>12.5g} [{c['q1']:.4g}, {c['q3']:.4g}]".ljust(36) +
              f"{100 * r['gain'] + 0.0:>+7.1f}%  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

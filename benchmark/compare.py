#!/usr/bin/env python3
"""Compare two checkouts of the repository on the benchmark.

    benchmark/compare.py PARENT CHANGE [--pairs 10] [--workloads a,b]
                         [--seconds 10] [--first-seed 101] [--json FILE]

PARENT and CHANGE are checkout roots, each holding benchmark/run.sh (each
builds into its own build-bench/). Pair i runs every workload on both sides
with seed first_seed + i; even pairs run the parent first, odd pairs the
change first. For every (workload, end-to-end metric) it reports each
side's median and quartiles and one verdict, using the bounds and
directions in this checkout's BENCHMARK.json:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run
  within      none of the above

Exits 1 if any pairing is a regression.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(root, workload, seed, seconds):
    cmd = ["bash", os.path.join(root, "benchmark", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare.py: {' '.join(cmd)} failed in {root}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"compare.py: {workload} seed {seed} in {root} reported failures")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > (p_q3 - p_q1):
        return "gain", wins
    if worse_by > bound:
        return "regression", wins
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not every_run_better:
        return "unresolved", wins
    return "within", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--json", default="")
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("compare.py: the gain rule needs at least 10 pairs")

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs = {side: {w: [] for w in workloads} for side in roots}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                runs[side][w].append(run_once(roots[side], w, seed, seconds))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, {order[0]} first)",
              file=sys.stderr)

    report = []
    regressions = 0
    print(f"{'workload':16} {'metric':18} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for w in workloads:
        for m in metrics:
            parent = [r[m["name"]] for r in runs["parent"][w]]
            change = [r[m["name"]] for r in runs["change"][w]]
            v, wins = verdict(parent, change, m["better"], m["bound"])
            regressions += v == "regression"
            p, c = quartiles(parent), quartiles(change)
            print(f"{w:16} {m['name']:18} {p[1]:14.6g} [{p[0]:.6g}, {p[2]:.6g}]"
                  f" {c[1]:14.6g} [{c[0]:.6g}, {c[2]:.6g}] {wins:3}/{len(parent)}  {v}")
            report.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                           "bound": m["bound"], "parent": parent, "change": change,
                           "parent_quartiles": p, "change_quartiles": c,
                           "wins": wins, "verdict": v})
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

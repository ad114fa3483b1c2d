#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload N times on one build, untraced, with the command and
run_seconds of BENCHMARK.json and seeds 1..N, and prints every metric's median, quartiles, min/max and quartile spread as a
share of the median, next to the metric's bound from BENCHMARK.json.
With --sets 2 it repeats the whole set and reports how far the second
median moved from the first, which is what a regression gate compares.

Run from the repository root:

    python3 qosbench/steady.py --workload sim_mix --runs 10
    python3 qosbench/steady.py --workload admit_flood --runs 5 --sets 2

Quartiles come from statistics.quantiles(values, n=4), the same rule the
bounds are defined against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_bench(path):
    with open(path) as f:
        return json.load(f)


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {' '.join(argv)} (exit {proc.returncode})")
    config = next((l[len("config "):] for l in lines if l.startswith("config ")), "{}")
    return json.loads(lines[-1]), json.loads(config), wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, min(values), max(values), spread


def run_set(command, workload, runs, seconds):
    per_metric = {}
    units = {}
    walls = []
    config = None
    for seed in range(1, runs + 1):
        result, cfg, wall = run_once(command, workload, seed, seconds)
        config = config or cfg
        walls.append(wall)
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"seed {seed}: output check failed: {result}")
        for name, m in result["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"  seed {seed}: {wall:.1f} s wall", file=sys.stderr)
    return per_metric, units, walls, config


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    bench = load_bench("BENCHMARK.json")
    command = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    medians = []
    for s in range(args.sets):
        # Every set uses the same seeds, as a gate comparing two builds does.
        print(f"set {s + 1}: {args.runs} runs of {args.workload}", file=sys.stderr)
        per_metric, units, walls, config = run_set(command, args.workload, args.runs, seconds)
        print(f"set {s + 1} config: {json.dumps(config)}")
        print(f"set {s + 1} wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} "
              f"{'max':>14} {'iqr/med':>8} {'bound':>6} {'/bound':>6}")
        set_medians = {}
        for name, values in per_metric.items():
            med, q1, q3, lo, hi, spread = summarize(values)
            set_medians[name] = med
            bound = bounds.get(name)
            share = f"{spread / bound:6.2f}" if bound else "     -"
            print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {lo:>14.6g} "
                  f"{hi:>14.6g} {spread:>8.4f} {bound if bound else '-':>6} {share} "
                  f"{units[name]}")
        medians.append(set_medians)

    if len(medians) > 1:
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        print("median drift of the last set against the first (positive = worse):")
        for name, first in medians[0].items():
            last = medians[-1][name]
            if not first:
                continue
            change = (last - first) / first
            worse = change if better.get(name) == "lower" else -change
            bound = bounds.get(name)
            flag = "" if bound is None or worse <= bound else "  EXCEEDS BOUND"
            print(f"  {name:<32} {worse:+.4f} (bound {bound}){flag}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload ingest_live --runs 10 \
        [--first-seed 1] [--trace 0] [--json out.json]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of that
median, next to the metric's bound from BENCHMARK.json. A benchmark is
steady when every spread stays below its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError("run failed (exit %d): %s seed %d"
                           % (out.returncode, workload, seed))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--json", help="also write the raw results here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        start = time.monotonic()
        result = run_once(args.workload, seed, spec["run_seconds"],
                          args.trace)
        wall_s = time.monotonic() - start
        results.append({"seed": seed, "wall_s": wall_s, "result": result})
        print("seed %d: correct=%s attempted=%d failed=%d wall=%.1fs"
              % (seed, result["correct"], result["attempted"],
                 result["failed"], wall_s), flush=True)
    names = list(results[0]["result"]["metrics"])
    print("%-28s %14s %9s %7s" % ("metric", "median", "iqr/med", "bound"))
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = bounds.get(name)
        print("%-28s %14.6g %9.4f %7s" % (name, median, spread,
                                          "-" if bound is None else bound))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()

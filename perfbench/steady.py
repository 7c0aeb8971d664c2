#!/usr/bin/env python3
"""Run one workload N times on the current tree and print, for every
metric, its median, quartiles and spread next to its bound.

    python3 perfbench/steady.py --workload cold_read --runs 10 [--first-seed 1]

Each run uses its own seed (first-seed, first-seed + 1, ...). The
spread is (Q3 - Q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4); the bound is the metric's bound in
BENCHMARK.json. Two such sets on one commit are the evidence that runs
agree: every spread (setup_s aside) should stay within its bound, the
medians of the two sets within the bound of each other, and the
failed share identical.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         check=True).stdout.decode()
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    shares = []
    correct = True
    for i in range(args.runs):
        result = run_once(args.workload, args.first_seed + i,
                          spec["run_seconds"])
        correct = correct and result["correct"]
        shares.append("%d/%d" % (result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print("run %d seed %d: %s" % (i + 1, args.first_seed + i,
                                      json.dumps(result)), file=sys.stderr)

    print("%s: %d runs, seeds %d..%d, correct=%s, failed/attempted: %s"
          % (args.workload, args.runs, args.first_seed,
             args.first_seed + args.runs - 1, correct, " ".join(shares)))
    print("%-40s %12s %12s %12s %8s %6s  %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "unit"))
    for name, (unit, vals) in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag = "  OVER BOUND"
        print("%-40s %12.6g %12.6g %12.6g %8.4f %6s  %s%s" % (
            name, q1, med, q3, spread,
            "-" if bound is None else "%.3g" % bound, unit, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
``perfbench/`` (which compiles the program's libraries from ``src/``)
into ``.bench_build``; later calls only rebuild what changed. Build
output goes to standard error; standard output carries the run's
metadata line and, last, its JSON result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ingest", "cold_read", "hot_read", "routed_resize")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "vbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [os.path.join(BUILD, "vbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", runs]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The generator and the serving process it started share one
        # process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("run.py: vbench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())

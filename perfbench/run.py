#!/usr/bin/env python3
"""Build and run the perfbench driver from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --repeat R

The first form builds the repository's library and the driver into
.bench_build/ (CMake, Release), runs one workload, and passes the
driver's output through: a report, then one JSON result line last.
--trace 1 also writes the run's spans to .bench_build/traces/.

The second form is the steadiness self-check: it runs the workload R
times back to back with the same seed and prints, per end-to-end
metric, the median, the quartiles and (max - min) / median, and fails
unless the values that must repeat exactly (the result digests,
sim_slowdown, sim_peak_mem_pct and the artifact-cache counts) do.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RUN_TIMEOUT_S = 170


def build():
    """Configure until a build system exists, then let CMake bring the
    driver up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(3)


def run_driver(args, trace_out=None):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver did not finish in %d s\n" % RUN_TIMEOUT_S)
        sys.exit(4)


def last_json(stdout, prefix=None):
    for line in reversed(stdout.splitlines()):
        if prefix is None and line.startswith("{"):
            return json.loads(line)
        if prefix is not None and line.startswith(prefix):
            return json.loads(line[len(prefix):])
    return None


def steadiness(args):
    """Run one workload args.repeat times; report spreads, check repeats."""
    results, details = [], []
    for i in range(args.repeat):
        done = run_driver(args)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write("perfbench: run %d failed\n" % (i + 1))
            return done.returncode
        results.append(last_json(done.stdout))
        details.append(last_json(done.stdout, "perfbench-detail "))
    print("steadiness: %s seed=%d, %d runs" % (args.workload, args.seed, args.repeat))
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (max(values) - min(values)) / med if med else 0.0
        print("  %-20s median %12.6g  q1 %12.6g  q3 %12.6g  (max-min)/median %.4f %s"
              % (name, med, q1, q3, spread, first["unit"]))
    exact = ["digest", "sim_slowdown", "sim_peak_mem_pct"]
    if args.workload == "artifact-churn":
        exact.append("cache")
    repeated = all(d[key] == details[0][key] for d in details for key in exact)
    print("  exact repeat of %s: %s" % (", ".join(exact), "yes" if repeated else "NO"))
    return 0 if repeated else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness self-check: runs of the same seed")
    args = parser.parse_args()
    build()
    if args.repeat:
        args.trace = 0
        return steadiness(args)
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_build", "traces"), exist_ok=True)
        trace_out = os.path.join(ROOT, ".bench_build", "traces",
                                 "%s-%d.json" % (args.workload, args.seed))
    done = run_driver(args, trace_out)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

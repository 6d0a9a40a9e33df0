#!/usr/bin/env python3
"""Run interleaved perfbench pairs: a parent revision against this checkout.

    python3 tools/perf_pairs.py --parent REV --workload NAME --seeds 21-30
                                [--seconds 15]

Extracts REV with `git archive` into a directory under .bench_build/
and runs `perfbench/run.py --workload NAME --seed S --seconds T` once
per seed in that tree and once in this checkout's working tree
(uncommitted edits included), alternating which side runs first. It then
prints, for every end-to-end metric BENCHMARK.json lists that the
workload reports, the parent's median and quartiles, the change's median,
their ratio (change / parent) and the number of pairs the change won
(ties count for neither side). For each seed it compares the
`perfbench-detail` lines field by field: the result digest,
`sim_slowdown`, `sim_peak_mem_pct` and each artifact kind's hits,
misses, built, evictions and evicted bytes must be equal, and each
kind's `resident_bytes`, which a change to an artifact's layout moves
without moving a result, is printed as parent -> change. Any failed or
incorrect run fails the script; the extracted tree is removed either
way. Seeds are a comma-separated list of numbers and ranges, e.g.
`21-30` or `1,7,40-42`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The artifact-cache counts a change that keeps every result must repeat.
COUNTS = ("hits", "misses", "built", "evictions", "evicted_bytes")


def git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise SystemExit("perf_pairs: git %s failed: %s"
                         % (" ".join(args), done.stderr.strip()))
    return done.stdout.strip()


def parse_seeds(text):
    seeds = []
    for item in text.split(","):
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds in '%s'" % text)
    return seeds


def extract(commit, path):
    """Write `commit`'s files into a fresh directory `path`."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit("perf_pairs: could not extract %s" % commit)


def run_side(tree, label, args, seed):
    """One perfbench run in `tree`; returns (metrics, detail line)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           args.workload, "--seed", str(seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    lines = done.stdout.splitlines()
    result = next((json.loads(l) for l in reversed(lines) if l.startswith("{")),
                  None)
    prefix = "perfbench-detail "
    detail = next((json.loads(l[len(prefix):]) for l in reversed(lines)
                   if l.startswith(prefix)), None)
    if (done.returncode != 0 or result is None or not result.get("correct")
            or result.get("failed")):
        sys.stderr.write(done.stdout[-4000:])
        raise SystemExit("perf_pairs: %s run at seed %d failed (exit %d)"
                         % (label, seed, done.returncode))
    print("  seed %-5d %-6s done" % (seed, label), flush=True)
    return ({name: m["value"] for name, m in result["metrics"].items()},
            detail)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(args, end_to_end, runs):
    print("\n%s, %d pairs, --seconds %g, parent %s"
          % (args.workload, len(args.seeds), args.seconds, args.parent))
    print("  %-18s %-6s %12s %25s %12s %7s %6s"
          % ("metric", "unit", "parent", "[q1, q3]", "change", "ratio",
             "wins"))
    for metric in end_to_end:
        name = metric["name"]
        if any(name not in r[side][0] for r in runs for side in r):
            continue
        parent = [r["parent"][0][name] for r in runs]
        change = [r["change"][0][name] for r in runs]
        lower = metric["better"] == "lower"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        ratio = c_med / p_med if p_med else float("nan")
        print("  %-18s %-6s %12.6g %25s %12.6g %6.3fx %3d/%d"
              % (name, metric["unit"], p_med, "[%.6g, %.6g]" % (q1, q3),
                 c_med, ratio, wins, len(runs)))
    print("  perfbench-detail, field by field (results and cache counts"
          " must match; resident bytes parent -> change):")
    for seed, r in zip(args.seeds, runs):
        parent, change = r["parent"][1], r["change"][1]
        if parent is None or change is None:
            print("    seed %-5d NO detail line" % seed)
            continue
        differ = [f for f in ("digest", "sim_slowdown", "sim_peak_mem_pct")
                  if parent.get(f) != change.get(f)]
        resident = []
        for kind in sorted(set(parent.get("cache", {}))
                           | set(change.get("cache", {}))):
            p = parent.get("cache", {}).get(kind, {})
            c = change.get("cache", {}).get(kind, {})
            differ += ["%s.%s" % (kind, f) for f in COUNTS
                       if p.get(f) != c.get(f)]
            resident.append("%s %s -> %s" % (kind, p.get("resident_bytes"),
                                             c.get("resident_bytes")))
        print("    seed %-5d %s; %s"
              % (seed, "equal" if not differ else
                 "NO (%s differ)" % ", ".join(differ), "; ".join(resident)))
        if differ:
            print("      parent: %s\n      change: %s"
                  % (json.dumps(parent), json.dumps(change)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    commit = git("rev-parse", "--verify", args.parent + "^{commit}")
    tree = os.path.join(ROOT, ".bench_build", "pairs-" + commit[:12])
    extract(commit, tree)
    try:
        runs = []
        for i, seed in enumerate(args.seeds):
            sides = [("parent", tree), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            runs.append({label: run_side(path, label, args, seed)
                         for label, path in sides})
        report(args, end_to_end, runs)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

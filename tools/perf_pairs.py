#!/usr/bin/env python3
"""Run interleaved perfbench pairs: a parent revision against this checkout.

    python3 tools/perf_pairs.py --parent REV --workload NAME --seeds 21-30
                                [--seconds 15]

Checks REV out as a git worktree under .bench_build/ and runs
`perfbench/run.py --workload NAME --seed S --seconds T` once per seed in
that tree and once in this checkout's working tree (uncommitted edits
included), alternating which side runs first. It then prints, for every
end-to-end metric BENCHMARK.json lists that the workload reports, the
parent's median and quartiles, the change's median, their ratio
(change / parent) and the number of pairs the change won (ties count for
neither side), and says for each seed whether the `perfbench-detail`
line (result digest, simulated metrics, cache counts) is identical on
both sides. Any failed or incorrect run fails the script; the worktree
is removed either way. Seeds are a comma-separated list of numbers and
ranges, e.g. `21-30` or `1,7,40-42`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def remove_worktree(path):
    if os.path.exists(path):
        subprocess.run(["git", "worktree", "remove", "--force", path], cwd=ROOT)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT)


def run_side(tree, label, args, seed):
    """One perfbench run in `tree`; returns (metrics, detail line)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           args.workload, "--seed", str(seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    lines = done.stdout.splitlines()
    result = next((json.loads(l) for l in reversed(lines) if l.startswith("{")),
                  None)
    detail = next((l for l in reversed(lines)
                   if l.startswith("perfbench-detail ")), None)
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
    print("  perfbench-detail identical on both sides:")
    for seed, r in zip(args.seeds, runs):
        same = r["parent"][1] == r["change"][1]
        print("    seed %-5d %s" % (seed, "yes" if same else "NO"))
        if not same:
            print("      parent: %s\n      change: %s"
                  % (r["parent"][1], r["change"][1]))


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
    remove_worktree(tree)
    git("worktree", "add", "--detach", tree, commit)
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
        remove_worktree(tree)
    return 0


if __name__ == "__main__":
    sys.exit(main())

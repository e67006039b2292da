#!/usr/bin/env python3
"""Run interleaved parent/change pairs of qppt_bench, then diff them.

From the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --workloads htap \\
        --pairs 10 --seed0 100 --seconds 20 --out /tmp/pairs

The change side is this checkout as it stands; the parent side is REV,
exported with `git archive` into OUT/src-parent. Each side runs its own
qppt_bench/run.py, which builds that tree into its own CARGO_TARGET_DIR
(OUT/build-parent, OUT/build-change). Pair i runs every workload once per
side with seed SEED0 + i; even pairs run the parent first, odd pairs the
change first. Results are saved with `run.py --results` into OUT/parent
and OUT/change, which must not hold results yet, and each run's printed
summary (query and commit percentiles, say) into
OUT/logs/SIDE-WORKLOAD-sSEED.log. Finally the script runs
qppt_bench/bench_diff.py OUT/parent OUT/change, then prints the paired
ratios: per workload and end-to-end metric, the change/parent ratio of
each pair of runs with the same seed (median, min, max) and the pairs the
change won. Host drift can widen both sides' interquartile ranges past a
metric's bound, so that bench_diff.py reads "unresolved" while every pair
won; the ratios show that. The script exits with bench_diff.py's status,
or with at least 1 when any run exited non-zero (a build error or a
failed output check); the failed runs are listed last.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["ssb-flight", "ssb-clients", "point-reads", "htap"]


def fail(message):
    print(f"bench_pairs.py: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        fail("git " + " ".join(args) + " failed")
    return proc.stdout.strip()


def export_parent(rev, out):
    """Exports `rev` into OUT/src-parent once; returns the tree's path."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    src = os.path.join(out, "src-parent")
    stamp = os.path.join(src, ".bench_pairs_rev")
    if os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() != sha:
                fail(f"{src} holds another revision; use a fresh --out")
        return src
    if os.path.exists(src):
        fail(f"{src} exists but was not exported by this script")
    os.makedirs(src)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(f"could not export {rev}")
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return src


def log_path(out, side, workload, seed):
    return os.path.join(out, "logs", f"{side}-{workload}-s{seed}.log")


def run_side(out, side, tree, build_dir, workload, seed, seconds, trace):
    """Runs one workload on one side; returns run.py's exit status."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(tree, "qppt_bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--results", os.path.join(out, side)]
    print(f"bench_pairs.py: {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    os.makedirs(os.path.join(out, "logs"), exist_ok=True)
    with open(log_path(out, side, workload, seed), "w") as f:
        proc = subprocess.run(cmd, env=env, cwd=tree, stdout=f)
    if proc.returncode != 0:
        print(f"bench_pairs.py: {workload} seed {seed} exited "
              f"{proc.returncode} in {tree}", file=sys.stderr)
    return proc.returncode


def load_untraced(results_dir):
    """{workload: {seed: result}} of the untraced runs in RESULTS_DIR."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        if os.path.basename(path) == "meta.json":
            continue
        with open(path) as f:
            run = json.load(f)
        if run["trace"] == 0:
            runs.setdefault(run["workload"], {}).setdefault(run["seed"],
                                                            run["result"])
    return runs


def print_paired_ratios(out):
    """Prints change/parent ratios of the pairs (same workload and seed)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    parent = load_untraced(os.path.join(out, "parent"))
    change = load_untraced(os.path.join(out, "change"))
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for m in metrics:
            name = m["name"]
            sign = 1 if m["better"] == "higher" else -1
            ratios = []
            wins = 0
            for seed in seeds:
                p = parent[workload][seed]["metrics"][name]["value"]
                c = change[workload][seed]["metrics"][name]["value"]
                if p:
                    ratios.append(c / p)
                wins += sign * (c - p) > 0
            if ratios:
                rows.append((workload, name, statistics.median(ratios),
                             min(ratios), max(ratios), wins, len(seeds)))
    if not rows:
        return
    print(f"\npaired change/parent ratios (pairs share a seed)\n"
          f"{'workload':12s} {'metric':22s} {'median':>8s} {'min':>8s} "
          f"{'max':>8s} {'won':>7s}")
    for workload, name, median, low, high, wins, pairs in rows:
        print(f"{workload:12s} {name:22s} {median:8.4f} {low:8.4f} "
              f"{high:8.4f} {wins:3d}/{pairs:<3d}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="git revision to compare against")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1,
                        help="pair i runs with seed SEED0 + i")
    parser.add_argument("--seconds", type=float, default=20,
                        help="measured window per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 = per-layer metrics (run.py --trace 1)")
    parser.add_argument("--out", required=True, metavar="DIR")
    args = parser.parse_args()

    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        fail(f"unknown workloads {unknown}; choose from {WORKLOADS}")
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    out = os.path.abspath(args.out)
    sides = {
        "parent": (export_parent(args.parent, out),
                   os.path.join(out, "build-parent")),
        "change": (ROOT, os.path.join(out, "build-change")),
    }
    for side in sides:
        results = os.path.join(out, side)
        if os.path.isdir(results) and os.listdir(results):
            fail(f"{results} already holds results; use a fresh --out")

    failed = []  # (side, workload, seed, exit status) of every failed run
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                tree, build_dir = sides[side]
                status = run_side(out, side, tree, build_dir, workload, seed,
                                  args.seconds, args.trace)
                if status != 0:
                    failed.append((side, workload, seed, status))

    diff = [sys.executable, os.path.join(ROOT, "qppt_bench", "bench_diff.py"),
            os.path.join(out, "parent"), os.path.join(out, "change")]
    status = subprocess.run(diff).returncode
    print_paired_ratios(out)
    if failed:
        # A failed run (build error, failed output check) may still have
        # saved a result that bench_diff.py compares; its verdict does not
        # stand.
        print(f"bench_pairs.py: {len(failed)} run(s) failed, so the "
              "verdicts above do not stand:", file=sys.stderr)
        for side, workload, seed, code in failed:
            print(f"  {side} {workload} seed {seed}: exit {code}, see "
                  f"{log_path(out, side, workload, seed)}", file=sys.stderr)
        status = max(status, 1)
    sys.exit(status)


if __name__ == "__main__":
    main()

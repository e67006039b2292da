#!/usr/bin/env python3
"""Compare two sets of qppt_bench results, parent against change.

    python3 qppt_bench/bench_diff.py PARENT_DIR CHANGE_DIR
    python3 qppt_bench/bench_diff.py --self-test

Each directory holds result files written by `run.py --results DIR`. Runs
are paired in file order per workload (run the two sides alternately:
parent, change, change, parent, ...). For every end-to-end metric of
BENCHMARK.json and every workload, the report gives each side's median
and quartiles and one verdict:

  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound, or more operations failed;
  gain        the change wins at least 90% of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's interquartile range;
  unresolved  either side's interquartile range, as a share of its median,
              exceeds the bound, and not every change run beats every
              parent run;
  same        none of the above.

Per-layer metrics (traced runs) are listed with their medians only: they
have no bound. Exits 1 when any verdict is REGRESSION.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Classifies one (metric, workload) pair; returns (verdict, detail)."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = sign * (pm - cm) / pm if pm else 0.0
    wins = losses = 0
    for p, c in zip(parent, change):
        if sign * (c - p) > 0:
            wins += 1
        elif sign * (c - p) < 0:
            losses += 1
    pairs = min(len(parent), len(change))
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    detail = {"parent": (p1, pm, p3), "change": (c1, cm, c3),
              "worse": worse, "wins": wins, "losses": losses,
              "pairs": pairs, "spread": spread}
    if spread > bound and not all_better:
        return "unresolved", detail
    if worse > bound:
        return "REGRESSION", detail
    if (sign * (cm - pm) > 0 and pairs and wins >= 0.9 * pairs
            and abs(cm - pm) > p3 - p1):
        return "gain", detail
    return "same", detail


def fmt(q):
    q1, median, q3 = q
    return f"{median:.4f} [{q1:.4f}, {q3:.4f}]"


def load_runs(directory):
    """{(workload, trace): [result, ...]} in file order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if os.path.basename(path) == "meta.json":
            continue
        with open(path) as f:
            run = json.load(f)
        runs.setdefault((run["workload"], run["trace"]), []).append(
            run["result"])
    return runs


def compare(parent_dir, change_dir, bench):
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    regressions = 0
    print(f"{'workload':12s} {'metric':22s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'worse':>8s} {'won':>7s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        if trace == 0:
            p_failed = sum(r["failed"] for r in p_runs)
            c_failed = sum(r["failed"] for r in c_runs)
            if c_failed > p_failed:
                regressions += 1
                print(f"{workload:12s} {'failed':22s} {p_failed:>32d} "
                      f"{c_failed:>32d} {'':>8s} {'':>7s}  REGRESSION")
            for m in bench["end_to_end"]:
                name = m["name"]
                p = [r["metrics"][name]["value"] for r in p_runs]
                c = [r["metrics"][name]["value"] for r in c_runs]
                v, d = verdict(p, c, m["better"], m["bound"])
                regressions += v == "REGRESSION"
                print(f"{workload:12s} {name:22s} {fmt(d['parent']):>32s} "
                      f"{fmt(d['change']):>32s} {100 * d['worse']:7.2f}% "
                      f"{d['wins']:3d}/{d['pairs']:<3d}  {v}")
        else:
            for m in bench["per_layer"]:
                name = m["name"]
                p = statistics.median(r["metrics"][name]["value"]
                                      for r in p_runs)
                c = statistics.median(r["metrics"][name]["value"]
                                      for r in c_runs)
                print(f"{workload:12s} {name:34s} {p:16.4f} {c:16.4f} "
                      f"{m['unit']}")
    return regressions


def self_test():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.3]
    noisy = [100.0, 160.0, 50.0, 130.0, 70.0, 150.0, 60.0, 140.0, 80.0,
             120.0]

    def scale(values, factor):
        return [v * factor for v in values]

    cases = [
        # (expected, parent, change, better, bound)
        ("same", steady, scale(steady, 1.001), "higher", 0.1),
        ("gain", steady, scale(steady, 1.2), "higher", 0.1),
        ("REGRESSION", steady, scale(steady, 1.2), "lower", 0.1),
        # Worse, but within the bound.
        ("same", steady, scale(steady, 0.95), "higher", 0.1),
        # Every pair won, but by less than the parent's quartile spread.
        ("same", steady, [v + 0.2 for v in steady], "higher", 0.1),
        ("unresolved", steady, noisy, "lower", 0.1),
        # Wider than the bound, yet every change run beats every parent run.
        ("gain", noisy, scale(noisy, 4), "higher", 0.1),
    ]
    ok = True
    for expected, parent, change, better, bound in cases:
        got, _ = verdict(parent, change, better, bound)
        if got != expected:
            ok = False
            print(f"self-test FAILED: expected {expected}, got {got} for "
                  f"parent {parent}, change {change}, {better} is better")
    print("self-test " + ("passed" if ok else "FAILED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(0 if self_test() else 1)
    if not args.parent or not args.change:
        parser.error("give PARENT_DIR and CHANGE_DIR, or --self-test")
    with open(args.benchmark) as f:
        bench = json.load(f)
    sys.exit(1 if compare(args.parent, args.change, bench) else 0)


if __name__ == "__main__":
    main()

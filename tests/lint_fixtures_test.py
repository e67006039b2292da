#!/usr/bin/env python3
"""Fixture tests for scripts/analyze/qppt_lint.py.

Each lint check is demonstrated twice: a fixture seeded with violations
that must be flagged (with the expected check id, the expected number of
times), and a clean twin that must pass. Finishes with a full-tree run,
which must be clean — the same gate CI enforces.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(ROOT, "scripts", "analyze", "qppt_lint.py")
FIXTURES = os.path.join(ROOT, "tests", "lint_fixtures")

# (fixture, extra lint args, {check-id: expected count}); empty dict
# means the file must lint clean.
CASES = [
    ("raw_slot_violation.cc", [], {"raw-slot-read": 2}),
    ("raw_slot_clean.cc", [], {}),
    ("relaxed_violation.cc", [], {"relaxed-justify": 2}),
    ("relaxed_clean.cc", [], {}),
    ("release_pair_violation.cc", [], {"release-pair": 2}),
    ("release_pair_clean.cc", [], {}),
    ("memory_order_violation.cc", [], {"memory-order-literal": 3}),
    ("memory_order_clean.cc", [], {}),
    ("hot_alloc_violation.cc", ["--treat-as-hot"], {"hot-path-alloc": 3}),
    ("hot_alloc_clean.cc", ["--treat-as-hot"], {}),
    ("hot_alloc_function_violation.cc", ["--treat-as-hot"],
     {"hot-path-alloc": 2}),
    ("hot_alloc_function_clean.cc", ["--treat-as-hot"], {}),
    ("ranked_lock_violation.cc", [], {"ranked-lock": 3}),
    ("ranked_lock_clean.cc", [], {}),
    ("cancel_coverage_violation.cc", ["--treat-as-hot"],
     {"cancel-coverage": 3}),
    ("cancel_coverage_clean.cc", ["--treat-as-hot"], {}),
    ("planstats_violation.cc", [], {"planstats-clear": 1}),
    ("planstats_clean.cc", [], {}),
    ("failpoint_violation.cc", [], {"failpoint-tag": 2}),
    ("failpoint_clean.cc", [], {}),
]


def run_lint(args):
    proc = subprocess.run(
        [sys.executable, LINT, "--root", ROOT] + args,
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []
    for name, extra, expected in CASES:
        path = os.path.join(FIXTURES, name)
        code, out = run_lint([path] + extra)
        if not expected:
            if code != 0:
                failures.append(f"{name}: expected clean, got exit {code}:"
                                f"\n{out}")
            continue
        if code != 1:
            failures.append(f"{name}: expected exit 1, got {code}:\n{out}")
            continue
        for check, count in expected.items():
            got = out.count(f"[{check}]")
            if got != count:
                failures.append(
                    f"{name}: expected {count}x [{check}], got {got}:\n{out}")
        for line in out.splitlines():
            if "[" in line and not any(f"[{c}]" in line for c in expected):
                failures.append(f"{name}: unexpected finding: {line}")

    code, out = run_lint([])
    if code != 0:
        failures.append(f"full tree: expected clean, got exit {code}:\n{out}")

    if failures:
        print("lint fixture test FAILED:")
        for f in failures:
            print("  -", f)
        return 1
    print(f"lint fixture test: {len(CASES)} cases + full tree clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Line coverage of src/ under the end-to-end benchmark's workloads.

From the repository root:

    python3 scripts/bench_coverage.py --build-dir /tmp/qppt-cov

Configures qppt_bench/CMakeLists.txt into DIR as a Release build compiled
with --coverage at -O1 (failpoints and invariant checks stay compiled out,
as in Release), builds it, and runs every workload of BENCHMARK.json twice,
untraced and traced (RUN_SECONDS each, seed RUN_SEED), with --out-dir
DIR/out. Every run must exit 0. gcov --json-format then reads the line
counts of every translation unit in DIR. A src/ line counts once per file,
as executed when any unit executed it (headers are merged over the units
that include them), so the per-file numbers are executed/total executable
lines. The report lists the files sorted by unexecuted lines, then the
total, then the src/ functions no run called.

Lines that no workload reaches are the candidates for deletion: error
paths, failpoints and audits are deliberate, and the rest must name the
plan or measurement that needs them. The script writes only under DIR.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
RUN_SECONDS = 2
RUN_SEED = 1
RUN_TIMEOUT_S = 900


def fail(message, code=2):
    print(f"bench_coverage.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures and builds the instrumented benchmark; returns its path."""
    configure = ["cmake", "-S", os.path.join(ROOT, "qppt_bench"),
                 "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                 "-DCMAKE_CXX_FLAGS=--coverage",
                 "-DCMAKE_CXX_FLAGS_RELEASE=-O1 -DNDEBUG",
                 "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "qppt_bench")


def run_workloads(binary, build_dir):
    """Runs each workload untraced and traced; every run must exit 0."""
    for stale in glob.glob(os.path.join(build_dir, "**", "*.gcda"),
                           recursive=True):
        os.remove(stale)  # counts from an earlier invocation
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    for trace in (0, 1):
        for workload in workloads:
            cmd = [binary, "--workload", workload, "--seed", str(RUN_SEED),
                   "--seconds", str(RUN_SECONDS), "--trace", str(trace),
                   "--out-dir", out_dir]
            print(f"bench_coverage.py: {' '.join(cmd[1:])}", file=sys.stderr,
                  flush=True)
            try:
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                      cwd=build_dir, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"{workload} (trace {trace}) did not finish within "
                     f"{RUN_TIMEOUT_S} s", 1)
            if proc.returncode != 0:
                fail(f"{workload} (trace {trace}) exited {proc.returncode}", 1)
    return workloads


def gcov_reports(build_dir):
    """Yields gcov's JSON document of every translation unit in DIR."""
    notes = sorted(glob.glob(os.path.join(build_dir, "**", "*.gcno"),
                             recursive=True))
    if not notes:
        fail(f"no .gcno files under {build_dir}")
    # A unit that never ran has no .gcda; gcov then reports its lines as
    # unexecuted and says so on stderr.
    proc = subprocess.run(["gcov", "--json-format", "--stdout", *notes],
                          cwd=build_dir, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        fail(f"gcov exited {proc.returncode}")
    for line in proc.stdout.splitlines():
        if line.strip():
            yield json.loads(line)


def merge(reports):
    """{src file: ({line: count}, {start line: (name, calls)})}, max-merged."""
    files = {}
    for report in reports:
        cwd = report.get("current_working_directory", "")
        for entry in report["files"]:
            path = os.path.realpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(SRC):
                continue
            lines, functions = files.setdefault(path[len(ROOT) + 1:], ({}, {}))
            for line in entry["lines"]:
                n = line["line_number"]
                lines[n] = max(lines.get(n, 0), line["count"])
            for fn in entry["functions"]:
                n = fn["start_line"]
                name, calls = functions.get(n, (fn["demangled_name"], 0))
                functions[n] = (name, max(calls, fn["execution_count"]))
    return files


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", required=True, metavar="DIR",
                        help="instrumented build and run outputs go here")
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)
    if build_dir == ROOT or build_dir.startswith(
            os.path.join(ROOT, "qppt_bench") + os.sep):
        fail("--build-dir must not be the repository root or lie under "
             "qppt_bench/")

    binary = build(build_dir)
    workloads = run_workloads(binary, build_dir)
    files = merge(gcov_reports(build_dir))

    rows = []
    for path, (lines, _) in files.items():
        if not lines:
            continue  # declarations only
        executed = sum(1 for count in lines.values() if count > 0)
        rows.append((len(lines) - executed, executed, len(lines), path))
    rows.sort(key=lambda r: (-r[0], r[3]))
    print(f"src/ lines executed by qppt_bench: {', '.join(workloads)}; "
          f"untraced and traced, {RUN_SECONDS} s each, seed {RUN_SEED}")
    print(f"{'unexecuted':>10s} {'executed':>8s} {'total':>6s} "
          f"{'share':>6s}  file")
    for unexecuted, executed, total, path in rows:
        print(f"{unexecuted:10d} {executed:8d} {total:6d} "
              f"{100 * executed / total:5.1f}%  {path}")
    executed = sum(r[1] for r in rows)
    total = sum(r[2] for r in rows)
    print(f"total: {executed} of {total} executable src/ lines "
          f"({100 * executed / total:.1f}%) in {len(rows)} files")

    print("\nfunctions never called:")
    for path in sorted(files):
        for line, (name, calls) in sorted(files[path][1].items()):
            if calls == 0:
                print(f"  {path}:{line}  {name}")


if __name__ == "__main__":
    main()

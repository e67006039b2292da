#!/usr/bin/env python3
"""Build qppt_bench and run its workloads, one process per workload.

From the repository root:

    python3 qppt_bench/run.py --workload ssb-flight --seed 1 --seconds 10 --trace 0
    python3 qppt_bench/run.py --workload all --results qppt_bench/results/untraced-1

The first call builds the benchmark (CMake, Release) into
$CARGO_TARGET_DIR/qppt_bench, or .bench_build/qppt_bench when that variable
is unset; later calls rebuild only what changed. A single-workload run
prints the workload's summary and, as its last stdout line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. The metrics are the
end-to-end set of BENCHMARK.json with --trace 0 and its per-layer set with
--trace 1 (which also writes qppt_bench/out/<workload>.trace.json). The
exit code is 0 only when every output check passed.

--results DIR also saves each run's result (plus a meta.json describing the
machine and build) under DIR, the input format of bench_diff.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ssb-flight", "ssb-clients", "point-reads", "htap"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds; returns the benchmark binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"engine sources not found under {ROOT}/src; run from a "
             "checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "qppt_bench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "qppt_bench")


def run_workload(binary, workload, seed, seconds, trace, expected):
    """Runs one workload process; returns (exit code, result or None)."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: {workload} printed no result", file=sys.stderr)
        return proc.returncode or 1, None
    names = list(result.get("metrics", {}))
    if sorted(names) != sorted(expected):
        print(f"run.py: {workload} reported metrics {names}, BENCHMARK.json "
              f"lists {sorted(expected)}", file=sys.stderr)
        return 1, None
    return proc.returncode, result


def machine_meta(seed, seconds):
    def read(path, default="unknown"):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return default

    cpu = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    describe = subprocess.run(
        ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "build_type": "Release",
        "git_describe": describe.stdout.strip() or "unknown",
        "seed": seed,
        "window_s": seconds,
    }


def save(results_dir, workload, seed, seconds, trace, result):
    os.makedirs(results_dir, exist_ok=True)
    n = 0
    while True:
        path = os.path.join(results_dir,
                            f"{workload}-t{trace}-s{seed}-{n}.json")
        if not os.path.exists(path):
            break
        n += 1
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "result": result}, f, indent=1)
        f.write("\n")
    meta = os.path.join(results_dir, "meta.json")
    if not os.path.exists(meta):
        with open(meta, "w") as f:
            json.dump(machine_meta(seed, seconds), f, indent=1)
            f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=None,
                        help="also save each result under this directory")
    args = parser.parse_args()

    binary = build()
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    expected = [m["name"] for m in bench[key]]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    results = {}
    for workload in workloads:
        rc, result = run_workload(binary, workload, args.seed, seconds,
                                  args.trace, expected)
        if rc != 0 or result is None:
            code = 1
        if result is None:
            continue
        results[workload] = result
        if args.results:
            save(args.results, workload, args.seed, seconds, args.trace,
                 result)
    if args.workload != "all":
        if workloads[0] in results:
            print(json.dumps(results[workloads[0]]))
        sys.exit(code)
    units = {m["name"]: m["unit"] for m in bench[key]}
    print(f"\n{'metric':34s}" + "".join(f"{w:>14s}" for w in results))
    for name in expected:
        row = "".join(f"{r['metrics'][name]['value']:14.4f}"
                      for r in results.values())
        print(f"{name + ' (' + units[name] + ')':34s}{row}")
    sys.exit(code)


if __name__ == "__main__":
    main()

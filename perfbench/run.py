#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload (or all).

    python3 perfbench/run.py [--workload physics-comb|yelp-agg|photo-dse|all]
                             [--seed 42] [--seconds 30] [--trace 0|1]

The benchmark binary is compiled with CMake into .bench_build/perfbench
at the repository root (a no-op when it is up to date). Each workload
runs in its own process. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones. Full results and
the traced run's Perfetto trace go to .bench_out/. The exit code is 0
only when every correctness check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ["physics-comb", "yelp-agg", "photo-dse"]
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 3)


def revision():
    """The git revision, with "-dirty" when the tree has changes."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0 or not head.stdout.strip():
        return "unknown"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def run_one(workload, args, rev):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR), "--revision", rev]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def print_table(results):
    names = []
    for result in results.values():
        for name in result["metrics"]:
            if name not in names:
                names.append(name)
    header = f"{'metric':<30} {'unit':<9}" + "".join(f"{w:>18}" for w in results)
    print(header)
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in results.values()
                    if name in r["metrics"])
        cells = "".join(
            f"{r['metrics'][name]['value']:>18.6g}" if name in r["metrics"] else f"{'-':>18}"
            for r in results.values())
        print(f"{name:<30} {unit:<9}{cells}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2^32)")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")

    build()
    rev = revision()
    if args.workload != "all":
        code, lines, result = run_one(args.workload, args, rev)
        for line in lines:
            print(line)
        if result is None and code == 0:
            code = 1
        sys.exit(code)

    results = {}
    exit_code = 0
    for workload in WORKLOADS:
        code, _, result = run_one(workload, args, rev)
        if result is None:
            fail(f"{workload} printed no result (exit {code})", code or 1)
        results[workload] = result
        exit_code = exit_code or code
    print_table(results)
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    sys.exit(exit_code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds chainbench from source and runs one workload.

Usage, from the repository root:

    python3 chainbench/run.py --workload highway --seed 1 --seconds 30 --trace 0

The product sources under src/ and the benchmark are compiled into
.bench_build/chainbench (CMake, Release). Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. With --trace 1
the recorded spans are written to .bench_build/spans/<workload>-<seed>.json
(chrome://tracing format).

Exits non-zero, without a result line, when the build fails; exits 1 when
the benchmark finds a correctness violation.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "chainbench")
BINARY = os.path.join(BUILD, "chainbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(OUT, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "chainbench",
                    "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"chainbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("chainbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print("chainbench: no result line", file=sys.stderr)
        return proc.returncode or 4
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

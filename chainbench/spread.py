#!/usr/bin/env python3
"""Runs chainbench repeatedly and reports each metric's run-to-run spread.

Usage, from the repository root:

    python3 chainbench/spread.py --workload highway --runs 10 [--trace 0]

Each run gets its own seed (1..runs, offset by --first-seed). For every
metric it prints the median and the spread (Q3 - Q1) / median of the
runs, quartiles as Python's statistics.quantiles(values, n=4) gives
them, next to the metric's bound from BENCHMARK.json. Runs that fail a
correctness check still count towards the spread; they are listed at the
end and make the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    failed_seeds = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"seed {seed}: no result (exit {proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        if proc.returncode != 0 or not result["correct"]:
            # The figures still count towards the spread; the failure is
            # reported at the end and sets the exit code.
            failed_seeds.append(seed)
            print(f"seed {seed}: correctness check failed "
                  f"(exit {proc.returncode})")
        row = [f"failed={result['failed']}/{result['attempted']}"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}  ({spread / bound:.2f} of it)"
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name:40s} median {med:12.6g}  spread {spread:.4f}{note}")
    if args.trace == 0:
        print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    if failed_seeds:
        print(f"{len(failed_seeds)} of {args.runs} runs failed a correctness "
              f"check: seeds {failed_seeds}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Command-level tests of the benchmark.

Run from the repository root:

    python3 -m unittest discover -s chainbench/tests -p 'test_*.py'

A short run of every workload, untraced and traced, must exit 0, report
correct with no failed frame, and print exactly the metrics BENCHMARK.json lists, each with its
unit, both in the JSON result line and in the human-readable lines above
it. A run in a directory without the product sources must fail without a
result line.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run_bench(workload, trace, seconds=1.0, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "chainbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class ShortRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_run(self, workload, trace, listed):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        # The open-loop window keeps every ring from overflowing.
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in listed}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        text = "\n".join(lines[:-1])
        for name, unit in expected.items():
            self.assertRegex(text, rf"{name}\s+\S+ {unit}\b")
        return result

    def test_every_workload_untraced(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_run(w["name"], 0,
                                        self.bench["end_to_end"])
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_every_workload_traced(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1, self.bench["per_layer"])
                spans = os.path.join(ROOT, ".bench_build", "spans",
                                     f"{w['name']}-1.json")
                with open(spans) as f:
                    self.assertGreater(len(json.load(f)["traceEvents"]), 0)

    def test_unknown_workload_fails(self):
        proc = run_bench("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)


class WithoutSources(unittest.TestCase):
    def test_fails_without_a_result(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "chainbench"),
                            os.path.join(tmp, "chainbench"))
            proc = run_bench("highway", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the repo benchmark: every workload runs at a tiny size, every
metric BENCHMARK.json names is reported with its unit, the traced and
untraced simulated digests agree, and a directory without the simulator
sources yields an error instead of a result.

    python3 perfbench/test_run.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, run_py=RUN):
    cmd = [sys.executable, run_py, "--workload", workload, "--seed", "11",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


class BenchmarkTest(unittest.TestCase):
    def check_result(self, proc, wanted):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        # The table above the result names every metric with unit and samples.
        for m in wanted:
            self.assertTrue(any(line.startswith("# ") and " %s " % m["name"] in line
                                and "samples=" in line for line in lines), m["name"])
        return lines

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines = self.check_result(run(workload, 0), SPEC["end_to_end"])
                self.assertTrue(any("check digest_equal_across_reps" in line and " ok" in line
                                    for line in lines))

    def test_traced_runs_report_layers_and_match_untraced_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines = self.check_result(run(workload, 1), SPEC["per_layer"])
                self.assertTrue(any("check traced_digest_equals_untraced" in line
                                    and " ok" in line for line in lines))
                trace = os.path.join(ROOT, ".bench_build", "traces", workload + "-seed11.json")
                with open(trace) as f:
                    self.assertIn("traceEvents", json.load(f))

    def test_refuses_without_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("static_hot", 0, cwd=bare,
                       run_py=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

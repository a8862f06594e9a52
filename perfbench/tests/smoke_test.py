#!/usr/bin/env python3
"""Smoke test of the benchmark itself: tiny shapes, about a second per
workload.

    python3 perfbench/tests/smoke_test.py

For every workload in BENCHMARK.json it runs the benchmark command with
--smoke, untraced and traced, and asserts that the last line of stdout is
the result object with every named metric and its unit, that the run is
correct, and that each latency percentile states its tail sample count.
A run with --perturb (one checked result corrupted) must fail the residual
check: correct false, a failed operation, and a non-zero exit code.
"""

import json
import math
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, *extra):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace),
                              "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    return p, json.loads(lines[-1]), json.loads(lines[-2])


class Smoke(unittest.TestCase):
    def check_metrics(self, result, specs, nonzero):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {s["name"] for s in specs})
        for s in specs:
            m = result["metrics"][s["name"]]
            self.assertEqual(set(m), {"value", "unit"}, s["name"])
            self.assertEqual(m["unit"], s["unit"], s["name"])
            self.assertTrue(math.isfinite(m["value"]), s["name"])
            if nonzero:
                self.assertGreater(m["value"], 0, s["name"])

    def test_workloads(self):
        for w in BENCH["workloads"]:
            name = w["name"]
            for trace, specs in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    p, result, detail = run(name, trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, specs, nonzero=trace == 0)
                    for key in ("latency_p50_ms", "latency_p90_ms"):
                        self.assertIn("beyond", detail[key])
                        self.assertIn("samples", detail[key])
                    self.assertEqual(detail["meta"]["workload"], name)

    def test_perturbed_result_fails(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                p, result, _ = run(w["name"], 0, "--perturb")
                self.assertNotEqual(p.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("residual ratio inf", p.stderr)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench_driver like run.py does, then
  * smoke-runs every workload at a small size, untraced and traced,
    and checks the result line and that every metric BENCHMARK.json
    names is printed with its unit (and no other);
  * checks that the standalone queue replay pops as many waves as the
    pipeline executed (ServeReport::waves) on fault-free untuned runs,
    which is what makes timing the queue from outside valid;
  * checks that two processes given the same seed print bit-identical
    modeled and accuracy metrics and the same JSONL hash.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, HERE)
import run  # noqa: E402  (the entry point owns the build recipe)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SMOKE = ["--seed", "7", "--seconds", "0", "--scale", "0.05"]


def driver(*args):
    return subprocess.run([run.DRIVER, *args], capture_output=True,
                          text=True, timeout=300)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def check_result(self, workload, trace, expected):
        out = driver("--workload", workload, "--trace", str(trace), *SMOKE)
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        meta = json.loads(lines[-2])["metadata"]
        self.assertEqual(meta["workload"], workload)
        self.assertEqual(meta["sim_threads"], 1)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in expected})
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_smoke_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_result(w, 0, BENCH["end_to_end"])

    def test_smoke_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_result(w, 1, BENCH["per_layer"])

    def test_queue_replay_matches_pipeline_waves(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out = driver("--workload", w, "--check-replay",
                             "--scale", "0.1")
                self.assertEqual(out.returncode, 0,
                                 out.stdout + out.stderr)
                self.assertIn(": ok", out.stdout)

    def test_same_seed_repeats_modeled_results_exactly(self):
        # Across processes too: modeled and accuracy metrics, and the
        # journaled workload's JSONL hash, are pure functions of the
        # seed.
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = []
                for _ in range(2):
                    out = driver("--workload", w, *SMOKE)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    lines = out.stdout.strip().splitlines()
                    metrics = json.loads(lines[-1])["metrics"]
                    runs.append((
                        json.loads(lines[-2])["metadata"]["jsonl_fnv1a"],
                        {k: v["value"] for k, v in metrics.items()
                         if k.startswith(("modeled_", "accuracy_",
                                          "served_"))}))
                self.assertEqual(runs[0], runs[1])

    def test_unknown_workload_is_refused(self):
        out = driver("--workload", "no_such_workload", *SMOKE)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()

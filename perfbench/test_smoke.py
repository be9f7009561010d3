#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/test_smoke.py

Runs every workload at reduced scale (--smoke) with --trace 0 and 1 and
checks the result object: its keys, the correctness gates, and that the
metric names and units are exactly those BENCHMARK.json declares. Also
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


# serve needs 1000 answers at its 500 requests/s nominal rate (35% of the
# run) for p99 to have 10 samples beyond it.
SECONDS = {"serve": 8}
# Per-layer "_ms" metrics of study and tick that are not a span's self time.
NOT_SELF_TIMES = {"analysis.evolve_ms", "serve.reload_ms"}


def run_benchmark(root, workload, trace):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", str(SECONDS.get(workload, 1)),
               "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, declared):
        done = run_benchmark(ROOT, workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        context = json.loads(lines[-2])["context"]
        self.assertEqual(context["workload"], workload)
        for key in ("nproc", "wall_s", "process_cpu_s", "steal_s"):
            self.assertIn(key, context)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(list(result["metrics"]), list(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            if trace == 0:
                self.assertGreater(metric["value"], 0, name)
        return result["metrics"]

    def check_accounting(self, workload, layers):
        """The layer self times plus trace.unattributed_ms sum to the
        traced op (trace.op_ms), which is the untraced op plus
        trace.overhead_ms: no span's time falls outside the result."""
        value = {name: m["value"] for name, m in layers.items()}
        self_times = sum(v for name, v in value.items()
                         if name.endswith("_ms") and name not in NOT_SELF_TIMES
                         and not name.startswith("trace."))
        self.assertAlmostEqual(self_times + value["trace.unattributed_ms"],
                               value["trace.op_ms"],
                               delta=1e-6 * value["trace.op_ms"])
        if workload == "tick":
            self.assertLessEqual(value["analysis.evolve_self_ms"],
                                 value["analysis.evolve_ms"])

    def test_workloads(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                self.check(workload, 0, SPEC["end_to_end"])
                layers = self.check(workload, 1, SPEC["per_layer"])
                self.assertGreater(layers["serve.engine_batch_us"]["value"], 0)
                if workload == "study":
                    self.assertGreater(layers["blocklist.ingest_ms"]["value"], 0)
                    self.assertGreater(layers["census.census_ms"]["value"], 0)
                if workload == "tick":
                    self.assertGreater(layers["analysis.evolve_ms"]["value"], 0)
                    self.assertGreater(layers["serve.diff_ms"]["value"], 0)
                if workload in ("study", "tick"):
                    self.check_accounting(workload, layers)
                if workload == "serve":
                    self.assertGreaterEqual(
                        layers["serve.lookup_samples"]["value"], 1000)
                    self.assertGreater(layers["serve.max_rps"]["value"], 0)

    def test_refuses_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_tmp", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
            done = run_benchmark(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

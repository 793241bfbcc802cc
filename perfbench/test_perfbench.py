#!/usr/bin/env python3
"""Self-test of the benchmark, on the smoke sizes of every workload.

Run from the repository root:

    python3 perfbench/test_perfbench.py

It checks that BENCHMARK.json agrees with schema.json, that a smoke run
emits every end-to-end and per-layer metric, and that a corrupted outcome
(a digest mismatch) or a checkout without the library sources fails the run.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SCHEMA = json.loads((HERE / "schema.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=RUN):
    result = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                            capture_output=True, text=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return result, last


def report(workload, trace):
    seed = SCHEMA["workloads"][workload]["default_seed"]
    path = ROOT / ".bench_out" / f"report-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


class SchemaTest(unittest.TestCase):
    def test_benchmark_json_matches_schema(self):
        for workload in BENCHMARK["workloads"]:
            self.assertIn(workload["name"], SCHEMA["workloads"])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]],
                         [(k, v["unit"], v["better"]) for k, v in SCHEMA["per_layer"].items()])
        for metric in BENCHMARK["end_to_end"]:
            self.assertEqual(SCHEMA["end_to_end"][metric["name"]]["unit"], metric["unit"])
            self.assertEqual(set(SCHEMA["end_to_end"][metric["name"]]["workloads"]),
                             set(SCHEMA["workloads"]), metric["name"])

    def test_every_layer_metric_moves_an_end_to_end_metric(self):
        for name, spec in SCHEMA["per_layer"].items():
            self.assertTrue(spec["moves"], name)
            for moved in spec["moves"]:
                self.assertIn(moved, SCHEMA["end_to_end"], name)


class SmokeTest(unittest.TestCase):
    def test_untraced_run_emits_every_end_to_end_metric(self):
        for workload in SCHEMA["workloads"]:
            with self.subTest(workload=workload):
                result, last = run_bench("--workload", workload, "--smoke", "--seconds", "0",
                                         "--trace", "0")
                self.assertEqual(result.returncode, 0, result.stderr)
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"])
                self.assertEqual(last["failed"], 0)
                self.assertGreaterEqual(last["attempted"], 1)
                self.assertEqual(list(last["metrics"]),
                                 [m["name"] for m in BENCHMARK["end_to_end"]])
                for value in last["metrics"].values():
                    self.assertGreater(value["value"], 0)
                named = report(workload, 0)["metrics"]
                for name, spec in SCHEMA["end_to_end"].items():
                    if workload in spec["workloads"]:
                        self.assertIn(name, named)
                        self.assertEqual(named[name]["unit"], spec["unit"])
                        self.assertIn(name, result.stdout)
                self.assertEqual(named["failed_share"]["value"], 0)

    def test_traced_run_emits_every_per_layer_metric(self):
        for workload in SCHEMA["workloads"]:
            with self.subTest(workload=workload):
                result, last = run_bench("--workload", workload, "--smoke", "--seconds", "0",
                                         "--trace", "1")
                self.assertEqual(result.returncode, 0, result.stderr)
                self.assertTrue(last["correct"])
                self.assertEqual(list(last["metrics"]),
                                 [m["name"] for m in BENCHMARK["per_layer"]])
                traced = report(workload, 1)
                for name, spec in SCHEMA["per_layer"].items():
                    layer = traced["layers"][name]
                    self.assertEqual(layer["unit"], spec["unit"])
                    self.assertEqual(layer.get("bypassed", False),
                                     workload not in spec["workloads"], name)
                self.assertGreater(traced["layers"]["util.pool.speedup"]["median"], 0)
                self.assertIn("trace_overhead_s", traced)
                self.assertTrue(traced["spans"])
                checks = {c["name"]: c["ok"] for c in traced["checks"]}
                self.assertTrue(checks["digest.same_at_jobs1_and_jobsN"])
                self.assertTrue(checks["digest.matches_recorded"])

    def test_digest_mismatch_fails_the_run(self):
        result, last = run_bench("--workload", "sweep_fig9", "--smoke", "--seconds", "0",
                                 "--corrupt-digest")
        self.assertEqual(result.returncode, 1)
        self.assertFalse(last["correct"])
        self.assertGreaterEqual(last["failed"], 1)
        self.assertIn("FAILED CHECK digest.matches_recorded", result.stdout)

    def test_checkout_without_sources_fails_without_a_result(self):
        bare = ROOT / ".bench_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            result, last = run_bench("--workload", "sweep_fig9", "--seed", "1", "--seconds", "1",
                                     "--trace", "0", cwd=bare, script=bare / HERE.name / RUN.name)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(result.returncode, 0)
        self.assertIsNone(last)


if __name__ == "__main__":
    unittest.main()

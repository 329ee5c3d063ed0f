#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the harness like run.py does (into $CARGO_TARGET_DIR, default
.bench_build), then checks that the input generator is deterministic in
the seed, that the workloads have the working-set properties they are
chosen for, and that every metric the benchmark prints is declared in
BENCHMARK.json with the same unit.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

HARNESS, _ = run.build(run.build_dir())


def describe(workload, seed, cycles=2):
    done = subprocess.run([str(HARNESS), "inputs", "--workload", workload, "--seed", str(seed),
                           "--cycles", str(cycles)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared():
    with open(run.ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = describe(workload, 7)
                self.assertEqual(first, describe(workload, 7))
                self.assertNotEqual(first["digest"], describe(workload, 8)["digest"])

    def test_plan_cold_never_repeats_an_soc(self):
        inputs = describe("plan-cold", 3, cycles=3)
        self.assertEqual(inputs["items"], inputs["distinct_generated_socs"])

    def test_serve_mix_working_set_exceeds_both_lrus(self):
        for seed in (1, 2, 3):
            for cycle in describe("serve-mix", seed, cycles=3)["cycles"]:
                self.assertGreater(cycle["distinct_socs"], 16)   # tables cache capacity
                self.assertGreater(cycle["distinct_keys"], 256)  # solution memo capacity
                self.assertEqual(cycle["bad"] * 50, cycle["requests"])


class MetricTest(unittest.TestCase):
    def test_run_py_lists_match_benchmark_json(self):
        spec = declared()
        for key, listed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in spec[key]], listed)

    def test_every_printed_metric_is_declared(self):
        spec = declared()
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                        stdout=subprocess.PIPE, text=True, check=False)
                    self.assertEqual(done.returncode, 0, done.stdout[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    wanted = spec["per_layer" if trace else "end_to_end"]
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                    if not trace:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


if __name__ == "__main__":
    unittest.main()

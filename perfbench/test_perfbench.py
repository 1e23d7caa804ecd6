#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke-size workloads.

Run from the repository root (builds the benchmark on first use):

  python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench", "results")
WORKLOADS = ("scaleout", "shift", "create_storm")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, cwd=ROOT):
    """Runs one smoke benchmark; returns (exit code, result line, record)."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    path = os.path.join(RESULTS, "%s-seed%d-trace%d-smoke.json" %
                        (workload, seed, trace))
    record = None
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    return proc.returncode, result, record


def sim_outputs(record):
    return {k: v for k, v in record["info"].items() if k.startswith("sim.")}


class SmokeMetrics(unittest.TestCase):
    def test_every_metric_emitted_with_unit_and_finite(self):
        s = spec()
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, _ = run(workload, 1, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in s[key]}
                    got = result["metrics"]
                    self.assertEqual(sorted(got), sorted(want))
                    for name, m in got.items():
                        self.assertEqual(m["unit"], want[name], name)
                        self.assertTrue(math.isfinite(m["value"]), name)


class Seeds(unittest.TestCase):
    def test_seed_repeats_exactly_and_seeds_differ(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                outs = []
                for seed in (1, 1, 2):
                    code, result, record = run(workload, seed, 0)
                    self.assertEqual(code, 0)
                    outs.append((sim_outputs(record),
                                 result["metrics"]["sim_mds_tput"]["value"]))
                self.assertEqual(outs[0], outs[1])
                self.assertNotEqual(outs[0][0], outs[2][0])


class Notes(unittest.TestCase):
    def test_notes_cover_every_workload_and_per_layer_metric(self):
        s = spec()
        with open(os.path.join(ROOT, "perfbench", "metrics.json")) as f:
            notes = json.load(f)
        self.assertEqual(sorted(notes["workloads"]),
                         sorted(w["name"] for w in s["workloads"]))
        self.assertEqual(sorted(notes["per_layer"]),
                         sorted(m["name"] for m in s["per_layer"]))
        self.assertEqual(sorted(notes["end_to_end"]),
                         sorted(m["name"] for m in s["end_to_end"]))
        e2e = set(notes["end_to_end"])
        for name, note in notes["per_layer"].items():
            self.assertLessEqual(set(note["moves"]), e2e, name)
            self.assertLessEqual(set(note["on"]), set(notes["workloads"]), name)


class Isolated(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: the build must
        # fail and no result may be printed.
        box = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(box, ignore_errors=True)
        os.makedirs(box)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), box)
        for path in spec()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(box, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result, _ = run("create_storm", 1, 0, cwd=box)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(box, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/selftest.py

Kept out of the tier-1 suite (the file name does not match test_*.py): the
tests run workload passes and take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import run  # sets up sys.path, BLAS threads and the sgdlab import
import tracer
import workloads
from sgdlab import harness

SCRATCH = run.OUT / "selftest"


def bound_functions() -> dict:
    return {(owner, attr): owner.__dict__[attr]
            for owner, attr, _, _ in tracer.targets()}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
        cls.pinned = json.loads(run.DIGESTS.read_text(encoding="utf-8"))

    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_emitted_names_match_benchmark_json(self):
        names = lambda key: [m["name"] for m in self.spec[key]]
        self.assertEqual(list(workloads.WORKLOADS), names("workloads"))
        self.assertEqual(set(workloads.SETUP_CONFIGS), set(workloads.WORKLOADS))
        self.assertEqual(set(self.pinned), set(workloads.WORKLOADS))
        empty = tracer.Tracer().layer_metrics()
        passes = [run.Pass(traced=False, wall=1.0, run_s=0.5, iterations=10,
                           digests={}, bad=set()),
                  run.Pass(traced=True, wall=1.2, run_s=0.6, iterations=10,
                           digests={}, bad=set(), layers=empty)]
        self.assertEqual(sorted(run.end_to_end(passes, [0.1], 1.0)), sorted(names("end_to_end")))
        self.assertEqual(sorted(run.per_layer(passes, 1.0)), sorted(names("per_layer")))

    def test_corrupted_trace_counts_as_failed_output(self):
        expected = self.pinned["scalar_sweep"]
        p = run.run_pass("scalar_sweep", workloads.DEFAULT_SEED, SCRATCH, traced=False)
        self.assertEqual(run.check_outputs(p.digests, expected, p.bad), (len(expected), 0))
        victim = SCRATCH / next(name for name in sorted(p.digests) if name.endswith(".csv"))
        data = bytearray(victim.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        victim.write_bytes(bytes(data))
        corrupted = {name: run.sha256(SCRATCH / name) for name in p.digests}
        self.assertEqual(run.check_outputs(corrupted, expected, set()), (len(expected), 1))
        self.assertEqual(run.check_outputs(p.digests, expected, {victim.name}),
                         (len(expected), 1))
        self.assertEqual(run.check_outputs({}, expected, None),
                         (len(expected), len(expected)))

    def test_wrappers_are_gone_after_a_traced_run(self):
        before = bound_functions()
        before_run = harness.run_experiment
        p = run.run_pass("scalar_sweep", workloads.DEFAULT_SEED, SCRATCH, traced=True)
        self.assertGreater(p.layers["problems.sample.calls"], 0)
        self.assertEqual(p.layers["harness.iterations"], 4 * 10_000)
        self.assertEqual(bound_functions(), before)
        self.assertIs(harness.run_experiment, before_run)
        with self.assertRaises(RuntimeError), tracer.Tracer():
            raise RuntimeError("workload failed")
        self.assertEqual(bound_functions(), before)

    def test_lsq_grid_axes_produce_no_divergence(self):
        base = harness.load_config(run.CONFIGS / "least_squares_poor_start.yaml")
        seeds = [s for workload_seed in range(3)
                 for s in workloads.run_seeds(base.seed, workload_seed,
                                              workloads.GRID_SEEDS)]
        self.assertEqual(len(set(seeds)), 3)
        cells = harness.run_grid(base, workloads.GRID_MOMENTA,
                                 workloads.GRID_LEARNING_RATES, seeds, SCRATCH)
        self.assertEqual(sum(c.n_seeds for c in cells), 27)
        self.assertEqual([c.n_diverged for c in cells], [0] * 9)

    def test_fails_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.SPEC, bare / "BENCHMARK.json")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, env=env, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark: run every workload briefly and check that

- every run is correct, attempts at least one op and fails none;
- it emits exactly the metrics BENCHMARK.json registers, with their units,
  under a second seed too;
- the same seed gives identical counts (packets, decisions, considered,
  maxmin_dev_pct, core.considered_per_decision, obs.events_per_pkt);
- the traced and untraced runs agree on every count.

    python3 perfbench/test_bench.py
"""

import functools
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-telemetry", "bridge-fig9", "fleet-churn")
SECONDS = 1


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace, nth=0):
    """(detail, result) of one run; [nth] tells repeated runs apart."""
    del nth
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d trace %d failed:\n%s"
                             % (workload, seed, trace, proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def registered(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def counts(detail):
    """Every exact count a run's detail line carries."""
    keys = ("counts", "one_call_counts")
    return {k: detail[k] for k in keys if k in detail}


class Bench(unittest.TestCase):
    def test_registered_workloads(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))

    def test_correct_and_metric_names(self):
        for w in WORKLOADS:
            for seed in (1, 2):
                for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=w, seed=seed, trace=trace):
                        detail, result = run(w, seed, trace)
                        self.assertEqual(
                            sorted(result),
                            ["attempted", "correct", "failed", "metrics"])
                        self.assertTrue(result["correct"], detail)
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(result["failed"], 0)
                        got = {k: v["unit"] for k, v in result["metrics"].items()}
                        self.assertEqual(got, registered(kind))
                        if kind == "end_to_end":
                            for k, v in result["metrics"].items():
                                self.assertGreater(v["value"], 0, k)

    def test_same_seed_same_counts(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    a, ra = run(w, 1, trace)
                    b, rb = run(w, 1, trace, nth=1)
                    self.assertEqual(counts(a), counts(b))
                    self.assertTrue(counts(a))
                    if trace:
                        for k in ("core.considered_per_decision",
                                  "obs.events_per_pkt", "sim.maxmin_dev_pct"):
                            self.assertEqual(ra["metrics"][k], rb["metrics"][k], k)

    def test_traced_agrees_with_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain, _ = run(w, 1, 0)
                traced, _ = run(w, 1, 1)
                self.assertEqual(counts(plain), counts(traced))
                if "traced_counts" in traced:
                    self.assertEqual(traced["traced_counts"], traced["counts"])

    def test_seeds_differ(self):
        # a second seed is another input, not the same one relabelled
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(counts(run(w, 1, 0)[0]),
                                    counts(run(w, 2, 0)[0]))


if __name__ == "__main__":
    unittest.main()

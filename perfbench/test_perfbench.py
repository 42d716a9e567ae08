#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

* Smoke: every workload at tiny sizes and a fixed round count, run twice
  with one seed, must be correct both times, repeat its verdicts and counts
  exactly, and report exactly the metrics BENCHMARK.json names.
* Comparator: recorded same-code run sets A and B in perfbench/results/
  must not be flagged against each other, and a synthetic 2x slowdown of
  any end-to-end metric on any workload must be.
"""
import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402

BOUNDS, SPEC = compare.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that are counts or ratios of counts: they must repeat
# exactly on a rerun of the same inputs.
DETERMINISTIC_LAYER = [
    "checker.records", "checker.points", "lint.findings",
    "engine.cache.hit_ratio", "repair.ripped", "repair.rerouted_share",
    "repair.passes",
]
DETERMINISTIC_E2E = [
    "verdict_ok_share", "area_vs_paper", "max_wire_vs_paper",
    "repair_wire_overhead",
]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny", "--rounds", "2"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise AssertionError("run failed:\n" + done.stdout + done.stderr)
    lines = done.stdout.strip().splitlines()
    verdicts = [l for l in lines if l.startswith(("verdict", "MISMATCH"))]
    return json.loads(lines[-1]), verdicts


class Smoke(unittest.TestCase):
    def check_repeat(self, workload, trace, names, deterministic):
        a, va = run(workload, 7, trace)
        b, vb = run(workload, 7, trace)
        for res in (a, b):
            self.assertTrue(res["correct"], va)
            self.assertEqual(res["failed"], 0)
            self.assertGreater(res["attempted"], 0)
            self.assertEqual(sorted(res["metrics"]), sorted(names))
        self.assertEqual(va, vb)
        self.assertEqual(a["attempted"], b["attempted"])
        for name in deterministic:
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"], name)

    def test_end_to_end_metrics_repeat(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_repeat(w, 0, names, DETERMINISTIC_E2E)

    def test_per_layer_metrics_repeat(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_repeat(w, 1, names, DETERMINISTIC_LAYER)

    def test_units_match_benchmark_json(self):
        res, _ = run(WORKLOADS[0], 1, 0)
        for m in SPEC["end_to_end"]:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])


class Comparator(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.a = compare.load_runs(os.path.join(HERE, "results", "set_a.jsonl"))
        cls.b = compare.load_runs(os.path.join(HERE, "results", "set_b.jsonl"))

    def test_same_code_rerun_not_flagged(self):
        rows, bad = compare.compare(self.a, self.b, BOUNDS)
        self.assertEqual(bad, [])
        self.assertTrue(rows)
        self.assertEqual([r[:2] for r in rows if r[6]], [])

    def test_two_fold_slowdown_of_any_metric_flagged(self):
        for w in WORKLOADS:
            for name, m in BOUNDS.items():
                slow = copy.deepcopy(self.b)
                for run_ in slow:
                    if run_["workload"] != w:
                        continue
                    v = run_["result"]["metrics"][name]
                    v["value"] = (v["value"] * 2 if m["better"] == "lower"
                                  else v["value"] / 2)
                rows, _ = compare.compare(self.a, slow, BOUNDS)
                flagged = [r[:2] for r in rows if r[6]]
                with self.subTest(workload=w, metric=name):
                    self.assertEqual(flagged, [(w, name)])


if __name__ == "__main__":
    unittest.main()

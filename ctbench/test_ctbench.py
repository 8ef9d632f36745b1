#!/usr/bin/env python3
"""Tests for the benchmark itself.

    python3 ctbench/test_ctbench.py

Checks BENCHMARK.json against the benchmark contract, checks that the
metric names ctbench emits are exactly the ones BENCHMARK.json declares
(end-to-end per workload, per-layer for the traced run), checks run.py's
result validation, and builds and runs the C++ self-test (percentile rule,
Merkle reference, corrupted proof / SCT / artifact digest detection,
traced-result shape).
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ADD = re.compile(r'\b(?:out|layers)\.add\(\s*"([^"]+)"')


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def emitted(source):
    with open(os.path.join(HERE, "src", source)) as f:
        return set(ADD.findall(f.read()))


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["ctbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertLessEqual(len(json.dumps(spec)), 64 * 1024)
        for arg in spec["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))

    def test_names_units_bounds(self):
        spec = load_spec()
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class EmittedNamesTest(unittest.TestCase):
    def test_each_workload_emits_the_end_to_end_set(self):
        declared = {m["name"] for m in load_spec()["end_to_end"]}
        for source in ("ct_submit.cpp", "ct_monitor.cpp", "paper_pipeline.cpp"):
            self.assertEqual(emitted(source), declared, source)

    def test_traced_run_emits_the_per_layer_set(self):
        declared = {m["name"] for m in load_spec()["per_layer"]}
        self.assertEqual(emitted("replay.cpp"), declared)

    def test_workload_names_match_main(self):
        with open(os.path.join(HERE, "src", "main.cpp")) as f:
            main = f.read()
        for w in load_spec()["workloads"]:
            self.assertIn('"%s"' % w["name"], main)


class CheckResultTest(unittest.TestCase):
    declared = {"setup_s": "s", "p50_ms": "ms"}

    def result(self, **overrides):
        r = {"correct": True, "attempted": 10, "failed": 0,
             "metrics": {"setup_s": {"value": 0.5, "unit": "s"},
                         "p50_ms": {"value": 1.25, "unit": "ms"}}}
        r.update(overrides)
        return r

    def test_well_formed(self):
        self.assertEqual(run.check_result(self.result(), self.declared), [])

    def test_rejects_missing_or_extra_metric(self):
        r = self.result()
        del r["metrics"]["p50_ms"]
        self.assertTrue(run.check_result(r, self.declared))
        r = self.result()
        r["metrics"]["tail_ms"] = {"value": 2.0, "unit": "ms"}
        self.assertTrue(run.check_result(r, self.declared))

    def test_rejects_bad_values(self):
        r = self.result()
        r["metrics"]["p50_ms"]["value"] = float("nan")
        self.assertTrue(run.check_result(r, self.declared))
        r = self.result()
        r["metrics"]["p50_ms"]["unit"] = "s"
        self.assertTrue(run.check_result(r, self.declared))
        self.assertTrue(run.check_result(self.result(attempted=0), self.declared))
        self.assertTrue(run.check_result(self.result(failed=1.5), self.declared))


class SelfTest(unittest.TestCase):
    def test_cpp_selftest(self):
        self.assertTrue(run.build(), "build failed")
        subprocess.run(["cmake", "--build", run.BUILD_DIR, "--target", "ctbench_selftest"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
        proc = subprocess.run([os.path.join(run.BUILD_DIR, "ctbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()

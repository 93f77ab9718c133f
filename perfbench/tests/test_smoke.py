"""Smoke tests of the benchmark at tiny sizes.

    python3 -m unittest discover -s perfbench/tests

Builds the driver like run.py does ($CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench) on first use.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args):
    r = subprocess.run([sys.executable, os.path.join(BENCH, "run.py")]
                       + list(args), cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    return r.returncode, json.loads(r.stdout.strip().splitlines()[-1]), r


class MetricSpecTest(unittest.TestCase):
    def test_names_and_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, spec in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(spec[0], UNIT)
                self.assertIn(spec[1], ("lower", "higher"))

    def test_benchmark_json_matches(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            got = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            self.assertEqual(got, {k: v[:2] for k, v in table.items()})


class TinyRunTest(unittest.TestCase):
    def check_metrics(self, out, table, prefix=""):
        for name, spec in table.items():
            m = out["metrics"][prefix + name]
            self.assertEqual(m["unit"], spec[0])
            self.assertIsInstance(m["value"], (int, float))

    def test_every_metric_reported(self):
        for trace, table in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
            code, out, r = run_bench("--workload", "all", "--tiny",
                                     "--seconds", "0", "--trace", trace)
            self.assertEqual(code, 0, r.stderr[-3000:])
            self.assertTrue(out["correct"])
            self.assertEqual(out["failed"], 0)
            self.assertGreater(out["attempted"], 0)
            self.assertEqual(set(out), {"correct", "attempted", "failed",
                                        "metrics"})
            for w in run.WORKLOADS:
                self.check_metrics(out, table, w + ".")

    def test_gate_fires_on_wrong_expectation(self):
        for w in ("provisioned_mix", "tenant_scale"):
            code, out, _ = run_bench("--workload", w, "--tiny", "--seconds",
                                     "0", "--corrupt-expectation")
            self.assertEqual(code, 1)
            self.assertFalse(out["correct"])
            self.assertGreater(out["failed"], 0)


if __name__ == "__main__":
    unittest.main()

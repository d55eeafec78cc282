"""Self-test of the benchmark: tiny runs, metric names, output checks.

    python3 -m unittest bench/test_bench.py

Every workload runs on tiny inputs, traced and untraced, and its result
line must carry exactly the metrics BENCHMARK.json names.  The output
checks must flag a wrong output, and the benchmark must refuse to run
without the package.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py"] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class MetricNames(unittest.TestCase):
    def test_end_to_end_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END)

    def test_per_layer_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         run.per_layer_units())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace, wanted):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), wanted)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_each_workload(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        layers = {m["name"] for m in SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, e2e)
                self.check_run(workload, 1, layers)

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "catalog", "--seed", "1", "--seconds", "1",
                         cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class OutputChecks(unittest.TestCase):
    def outcomes(self, name, seed=5):
        build, check = workloads.WORKLOADS[name]
        ops = build(seed, True)
        return ops, [op.call(op.arg) for op in ops], check

    def test_catalog_flags_a_changed_csv_cell(self):
        ops, outputs, check = self.outcomes("catalog")
        self.assertEqual(check(ops, outputs)[0], [])
        i = next(i for i, op in enumerate(ops) if op.key.endswith("csv"))
        code, text = outputs[i]
        outputs[i] = (code, text.replace(",1\n", ",-1\n", 1))
        self.assertEqual(check(ops, outputs)[0], [ops[i].key])

    def test_ladder_flags_a_wrong_dimension(self):
        ops, outputs, check = self.outcomes("ladder")
        self.assertEqual(check(ops, outputs)[0], [])
        ops[0].expect *= 2
        self.assertEqual(check(ops, outputs)[0], [ops[0].key])

    def test_search_flags_a_short_system(self):
        ops, outputs, check = self.outcomes("search")
        self.assertEqual(check(ops, outputs)[0], [])
        i = next(i for i, out in enumerate(outputs) if len(out) > 1)
        outputs[i] = outputs[i][:-1]
        self.assertEqual(check(ops, outputs)[0], [ops[i].key])

    def test_audit_flags_a_wrong_sign_vector_and_a_missed_flip(self):
        ops, outputs, check = self.outcomes("audit")
        self.assertEqual(check(ops, outputs)[0], [])
        i = next(i for i, op in enumerate(ops) if op.kind == "compare")
        ops[i].expect = tuple(-x for x in ops[i].expect)
        j = next(j for j, op in enumerate(ops) if op.kind == "load")
        k = next(k for k, op in enumerate(ops) if op.kind == "flip")
        outputs[k] = outputs[j][1]  # an ok report where a flip must fail
        self.assertEqual(sorted(check(ops, outputs)[0]),
                         sorted([ops[i].key, ops[k].key]))

    def test_an_op_that_raises_counts_as_failed(self):
        ops, outputs, check = self.outcomes("ladder")
        outputs[0] = workloads.OpError(ValueError("boom"))
        self.assertEqual(check(ops, outputs)[0], [ops[0].key])

    def test_a_failed_json_gen_fails_every_format_of_its_signature(self):
        ops, outputs, check = self.outcomes("catalog")
        i = next(i for i, op in enumerate(ops) if op.key == "gen 2 0 --format json")
        outputs[i] = workloads.OpError(ValueError("boom"))
        self.assertEqual(sorted(check(ops, outputs)[0]),
                         ["gen 2 0 --format %s" % f for f in ("csv", "json", "latex")])


if __name__ == "__main__":
    unittest.main()

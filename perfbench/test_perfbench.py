#!/usr/bin/env python3
"""The benchmark's own tests: every workload at its smoke size.

    python3 perfbench/test_perfbench.py

Builds through perfbench/run.py like any run, then checks that each metric
BENCHMARK.json names prints with its unit, that a run whose reference digest
was corrupted counts the mismatch in error_rate, and that the benchmark
refuses to run without the library sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    META = json.load(f)
WORKLOADS = [w["name"] for w in META["workloads"]]
STAMP_KEYS = {"workload", "seed", "seconds", "trace", "size", "nproc",
              "cpu_model", "build_type", "compiler", "revision", "threads"}


def smoke(workload, trace, *extra, cwd=ROOT, runner=RUN):
    return subprocess.run(
        runner + ["--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        proc = smoke(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        printed = {l.split()[0]: l.split()[-1] for l in lines[:-1] if l.split()}
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        stamp = json.loads(next(l for l in lines if l.startswith("stamp "))[6:])
        self.assertEqual(set(stamp), STAMP_KEYS)
        self.assertEqual(stamp["build_type"], "RelWithDebInfo")
        return result

    def test_end_to_end_metrics_print_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = self.check_run(w, 0, META["end_to_end"])
                for m in META["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_per_layer_metrics_print_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1, META["per_layer"])

    def test_corrupted_reference_counts_in_error_rate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = smoke(w, 0, "--corrupt-reference")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                rate = next(l for l in lines if l.startswith("error_rate"))
                self.assertAlmostEqual(float(rate.split()[1]),
                                       1 / result["attempted"])

    def test_refuses_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = smoke(WORKLOADS[0], 0, cwd=bare, runner=[
                sys.executable, os.path.join(bare, "perfbench", "run.py")])
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

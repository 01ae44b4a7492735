#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 perfbench/test_perfbench.py

Covers the metric-output parse against BENCHMARK.json (on synthetic
results and on the program's real output), and runs the C++ helper test
(percentile picker, span self time, row comparison). Builds the benchmark
under .bench_build/ first if needed.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def synthetic_result(bench, traced, drop=None, extra=None, unit=None):
    section = bench["per_layer" if traced else "end_to_end"]
    metrics = [{"name": m["name"], "value": 1.5, "unit": m["unit"],
                "samples": 10, "note": ""}
               for m in section if m["name"] != drop]
    if extra:
        metrics.append({"name": extra, "value": 1.0, "unit": "s"})
    if unit:
        metrics[0]["unit"] = unit
    return {"workload": "w", "attempted": 10, "failed": 0, "wrong_rows": 0,
            "metrics": metrics}


class CheckMetricsTest(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark_json()

    def test_complete_output_passes(self):
        for traced in (False, True):
            result = synthetic_result(self.bench, traced)
            self.assertEqual(run.check_metrics(result, self.bench, traced), [])

    def test_missing_extra_and_wrong_unit_are_errors(self):
        name = self.bench["end_to_end"][1]["name"]
        errors = run.check_metrics(
            synthetic_result(self.bench, False, drop=name), self.bench, False)
        self.assertEqual(errors, ["metric %s is missing" % name])
        errors = run.check_metrics(
            synthetic_result(self.bench, False, extra="bogus_s"), self.bench,
            False)
        self.assertEqual(errors, ["metric bogus_s is not in BENCHMARK.json"])
        errors = run.check_metrics(
            synthetic_result(self.bench, False, unit="h"), self.bench, False)
        self.assertEqual(len(errors), 1)
        self.assertIn("has unit 'h'", errors[0])

    def test_traced_and_untraced_sets_differ(self):
        result = synthetic_result(self.bench, False)
        self.assertTrue(run.check_metrics(result, self.bench, True))

    def test_non_finite_and_duplicate_values_are_errors(self):
        result = synthetic_result(self.bench, False)
        result["metrics"][0]["value"] = float("nan")
        result["metrics"].append(dict(result["metrics"][1]))
        errors = run.check_metrics(result, self.bench, False)
        self.assertEqual(len(errors), 2)

    def test_parse_takes_the_last_result_line(self):
        out = ("noise\nPERFBENCH_RESULT {\"a\": 1}\n"
               "more\nPERFBENCH_RESULT {\"a\": 2}\ntrailer\n")
        self.assertEqual(run.parse_result(out), {"a": 2})
        with self.assertRaises(ValueError):
            run.parse_result("no result here\n")

    def test_contract_line_has_exactly_the_contract_keys(self):
        result = synthetic_result(self.bench, False)
        line = json.loads(run.contract_line(result, True))
        self.assertEqual(sorted(line), ["attempted", "correct", "failed",
                                        "metrics"])
        for name, metric in line["metrics"].items():
            self.assertEqual(sorted(metric), ["unit", "value"], name)

    def test_benchmark_json_names_are_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.bench[key]]
        names += [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))


class ProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_cpp_helpers(self):
        subprocess.run(
            [os.path.join(run.BUILD_DIR, "perfbench_helpers_test")],
            check=True)

    def test_program_output_matches_benchmark_json(self):
        # A short real run of each kind: run.py itself rejects output whose
        # names or units differ from BENCHMARK.json (exit code 3).
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", "cached_ingest", "--seed", "1", "--seconds",
                 "1", "--trace", trace],
                capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertTrue(line["correct"])
            self.assertGreaterEqual(line["attempted"], 1)
            section = "per_layer" if trace == "1" else "end_to_end"
            self.assertEqual(
                sorted(line["metrics"]),
                sorted(m["name"] for m in run.load_benchmark_json()[section]))


if __name__ == "__main__":
    unittest.main()

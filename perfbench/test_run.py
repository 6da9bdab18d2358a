#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 perfbench/test_run.py
"""

import contextlib
import copy
import io
import json
import math
import re
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# The grammar BENCHMARK.json requires of metric names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def hexes(values):
    return [float(v).hex() for v in values]


def timed_raw():
    """A passing --trace 0 raw result with two short-single requests."""
    good = [0.5, -1.25, 2.0]
    rec = {"request": 0, "packed": hexes(good),
           "fp32": hexes([0.4, -1.0, 1.5]), "ref": hexes(good),
           "serial": hexes(good)}
    rec2 = dict(rec, request=1)
    del rec2["ref"], rec2["serial"]
    return {
        "mode": "timed", "workload": "short-single", "head_outputs": 3,
        "records": [rec, rec2], "serve_ids": [], "serve_chunk": 16,
        "setup_s": [7.0, 7.2], "resident_weight_bytes": 16 << 20,
        "rss_bytes": 128 << 20,
        "packed": {"latency_ms": [60.0, 61.0], "tokens": 9,
                   "wall_s": 0.121, "calls": 2},
        "fp32": {"latency_ms": [10.0, 11.0], "tokens": 9, "wall_s": 0.021,
                 "calls": 2},
    }


class PercentileTest(unittest.TestCase):
    def test_harrell_davis_estimates(self):
        pct = run.percentile
        self.assertAlmostEqual(pct([5, 1, 4, 2, 3], 50), 3)
        self.assertAlmostEqual(pct(range(1, 201), 50), 100.5)
        self.assertAlmostEqual(pct([7.5], 95), 7.5)
        self.assertAlmostEqual(pct([2.0] * 30, 95), 2.0)
        xs = [float(i * i) for i in range(40)]
        estimates = [pct(xs, q) for q in (5, 25, 50, 75, 95, 99)]
        self.assertEqual(estimates, sorted(estimates))
        self.assertTrue(0 < estimates[0] and estimates[-1] < 39 * 39)
        # Against the Beta density integrated numerically (midpoint rule
        # in t, x = 1 - t^2, 2e5 steps).
        self.assertAlmostEqual(pct([1, 2, 4, 8], 50), 3.37975, places=4)
        self.assertAlmostEqual(pct([1, 2, 4, 8], 90), 7.50029, places=4)

    def test_steady_across_a_gap_at_the_median(self):
        pct = run.percentile
        balanced = [10.0] * 50 + [20.0] * 50
        shifted = [10.0] * 51 + [20.0] * 49
        self.assertAlmostEqual(pct(balanced, 50), 15.0)
        self.assertLess(abs(pct(shifted, 50) - 15.0), 1.0)

    def test_rejects_empty_and_extremes(self):
        for xs, q in (([], 50), ([1.0], 0), ([1.0], 100)):
            with self.assertRaises(ValueError):
                run.percentile(xs, q)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        hsp = run.highest_supported_percentile
        self.assertEqual(hsp(200), 95)   # 10 beyond p95
        self.assertEqual(hsp(199), 90)   # 9.95 beyond p95: too few
        self.assertEqual(hsp(1000), 99)
        self.assertEqual(hsp(10000), 99.9)
        self.assertEqual(hsp(20), 50)
        self.assertIsNone(hsp(19))


class MetricNameTest(unittest.TestCase):
    def test_grammar(self):
        ok = ["setup_s", "core.qexec.self_ms", "a", "9x", "a-b.c_d",
              "x" * 64]
        bad = ["", ".x", "_x", "a b", "a/b", "x" * 65, "a:b"]
        for name in ok:
            self.assertRegex(name, NAME_RE)
        for name in bad:
            self.assertNotRegex(name, NAME_RE)
        for unit in ["ms", "s", "tok/s", "GB/s", "%", "fraction"]:
            self.assertRegex(unit, UNIT_RE)
        for unit in ["", "tokens per s", "x" * 17]:
            self.assertNotRegex(unit, UNIT_RE)

    def test_reported_names_and_units_are_well_formed(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, NAME_RE)
                self.assertRegex(unit, UNIT_RE)
        self.assertFalse(set(run.END_TO_END) & set(run.PER_LAYER))

    def test_benchmark_json_matches_what_run_reports(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside perfbench/")
        spec = json.loads(path.read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


class FailedFracTest(unittest.TestCase):
    def failed(self, raw):
        attempted, failed, _ = run.check_raw(raw)
        return failed / attempted

    def test_passing_run(self):
        raw = timed_raw()
        self.assertEqual(run.check_raw(raw)[:2], (2, 0))
        metrics = run.timed_metrics(raw, 2, 0)
        self.assertEqual(metrics["passed_frac"], 1.0)

    def test_all_zero_logits_fail(self):
        raw = timed_raw()
        for rec in raw["records"]:
            rec["packed"] = hexes([0.0, 0.0, 0.0])
            rec.pop("ref", None)
            rec.pop("serial", None)
        self.assertEqual(self.failed(raw), 1.0)

    def test_corrupted_logits_fail(self):
        corruptions = [
            [math.nan, -1.25, 2.0],
            [math.inf, -1.25, 2.0],
            [0.5, -1.25],
            [500.0, -1250.0, 2000.0],
        ]
        for bad in corruptions:
            raw = timed_raw()
            raw["records"][1]["packed"] = hexes(bad)
            attempted, failed, _ = run.check_raw(raw)
            self.assertEqual((attempted, failed), (2, 1), bad)
            metrics = run.timed_metrics(raw, attempted, failed)
            self.assertEqual(metrics["passed_frac"], 0.5)

    def test_one_ulp_off_the_serial_rerun_fails(self):
        raw = timed_raw()
        rec = raw["records"][0]
        rec["serial"] = hexes([math.nextafter(0.5, 1.0), -1.25, 2.0])
        self.assertGreater(self.failed(raw), 0)

    def test_drift_from_decoded_reference_fails(self):
        raw = timed_raw()
        raw["records"][0]["ref"] = hexes([0.5, -1.25, 2.01])
        self.assertGreater(self.failed(raw), 0)

    def test_missing_fp32_reference_fails(self):
        raw = timed_raw()
        raw["records"][1]["fp32"] = []
        self.assertGreater(self.failed(raw), 0)

    def test_serve_needs_exactly_one_ok_per_id(self):
        raw = timed_raw()
        raw["workload"] = "serve-mixed"
        raw["serve_chunk"] = 2
        raw["serve_ids"] = [[[0, 1], [1, 1]]]
        self.assertEqual(self.failed(raw), 0)
        for ids in ([[0, 1], [0, 1]], [[0, 1], [1, 0]], [[0, 1]]):
            bad = copy.deepcopy(raw)
            bad["serve_ids"] = [ids]
            self.assertGreater(self.failed(bad), 0, ids)


class CompareTest(unittest.TestCase):
    def write(self, directory, name, stamp):
        path = Path(directory) / name
        path.write_text(json.dumps({
            "stamp": stamp, "workload": "short-single", "trace": 0,
            "metrics": {"tokens_per_s": {"value": 70.0, "unit": "tok/s"}},
        }))
        return str(path)

    def test_refuses_results_whose_stamps_differ(self):
        stamp = {"kernel_tier": "avx512", "seq_tile": 16, "threads": 4,
                 "cores": 4, "decode_cache_budget_bytes": 1 << 20,
                 "gobo_env": {}}
        with tempfile.TemporaryDirectory() as d:
            a = self.write(d, "a.json", stamp)
            b = self.write(d, "b.json", stamp)
            c = self.write(d, "c.json", dict(stamp, threads=1))
            e = self.write(d, "e.json",
                           dict(stamp, gobo_env={"GOBO_KERNEL": "generic"}))
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(run.compare(a, b), 0)
                self.assertEqual(run.compare(a, c), 2)
                self.assertEqual(run.compare(a, e), 2)


if __name__ == "__main__":
    unittest.main()

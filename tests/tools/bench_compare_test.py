#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py (stdlib unittest, ctest-registered).

Covers the perf-gate contract: regressions beyond threshold fail with exit 1,
improvements are reported but pass, a missing baseline only warns (exit 0),
malformed JSON is rejected with exit 2, repeated runs compare by median with
aggregate rows skipped, and tracked.json ratio invariants are enforced on the
current snapshots.
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent.parent.parent / "tools"
sys.path.insert(0, str(TOOLS_DIR))

import bench_compare  # noqa: E402


def write_bench(directory: Path, name: str, times: dict) -> None:
    runs = [{"name": run, "iterations": 10, "real_time": t, "cpu_time": t,
             "time_unit": "ns"} for run, t in times.items()]
    (directory / name).write_text(json.dumps({"bench": "x", "runs": runs}))


def run_compare(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bench_compare.main(argv)
    return code, out.getvalue(), err.getvalue()


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = Path(self._tmp.name)
        self.baseline = root / "baseline"
        self.current = root / "current"
        self.baseline.mkdir()
        self.current.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def args(self, *extra):
        return ["--baseline-dir", str(self.baseline),
                "--current-dir", str(self.current), *extra]

    def test_unchanged_times_pass(self):
        write_bench(self.baseline, "BENCH_a.json", {"BM_X/10": 100.0})
        write_bench(self.current, "BENCH_a.json", {"BM_X/10": 104.0})
        code, out, _ = run_compare(self.args())
        self.assertEqual(code, 0)
        self.assertIn("OK", out)

    def test_regression_detected(self):
        write_bench(self.baseline, "BENCH_a.json", {"BM_X/10": 100.0})
        write_bench(self.current, "BENCH_a.json", {"BM_X/10": 130.0})
        code, out, err = run_compare(self.args())
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("BM_X/10", err)

    def test_regression_respects_threshold_flag(self):
        write_bench(self.baseline, "BENCH_a.json", {"BM_X/10": 100.0})
        write_bench(self.current, "BENCH_a.json", {"BM_X/10": 130.0})
        code, _, _ = run_compare(self.args("--threshold", "0.5"))
        self.assertEqual(code, 0)

    def test_improvement_reported_and_passes(self):
        write_bench(self.baseline, "BENCH_a.json", {"BM_X/10": 100.0})
        write_bench(self.current, "BENCH_a.json", {"BM_X/10": 40.0})
        code, out, _ = run_compare(self.args())
        self.assertEqual(code, 0)
        self.assertIn("IMPROVED", out)
        self.assertIn("2.50x faster", out)

    def test_missing_baseline_file_warns_but_passes(self):
        write_bench(self.current, "BENCH_new.json", {"BM_X/10": 100.0})
        code, out, _ = run_compare(self.args())
        self.assertEqual(code, 0)
        self.assertIn("WARNING", out)
        self.assertIn("no baseline for BENCH_new.json", out)

    def test_new_run_in_current_is_not_compared(self):
        write_bench(self.baseline, "BENCH_a.json", {"BM_X/10": 100.0})
        write_bench(self.current, "BENCH_a.json",
                    {"BM_X/10": 100.0, "BM_Y/10": 5.0})
        code, out, _ = run_compare(self.args())
        self.assertEqual(code, 0)
        self.assertIn("NEW", out)

    def test_malformed_json_rejected(self):
        write_bench(self.baseline, "BENCH_a.json", {"BM_X/10": 100.0})
        (self.current / "BENCH_a.json").write_text("{not json")
        code, _, err = run_compare(self.args())
        self.assertEqual(code, 2)
        self.assertIn("malformed", err)

    def test_missing_runs_array_rejected(self):
        write_bench(self.baseline, "BENCH_a.json", {"BM_X/10": 100.0})
        (self.current / "BENCH_a.json").write_text(json.dumps({"bench": "a"}))
        code, _, err = run_compare(self.args())
        self.assertEqual(code, 2)
        self.assertIn("runs", err)

    def test_empty_current_dir_is_usage_error(self):
        code, _, err = run_compare(self.args())
        self.assertEqual(code, 2)
        self.assertIn("no BENCH_*.json", err)

    def test_aggregate_rows_are_skipped(self):
        # --benchmark_repetitions appends mean/median/stddev/cv rows; a cv
        # row's "real_time" is a percentage and must never be compared.
        write_bench(self.baseline, "BENCH_a.json", {"BM_X/10": 100.0})
        runs = [{"name": "BM_X/10", "iterations": 10, "real_time": 101.0,
                 "cpu_time": 101.0, "time_unit": "ns"},
                {"name": "BM_X/10_cv", "iterations": 1, "real_time": 0.9,
                 "cpu_time": 0.9, "time_unit": "ns", "aggregate": "cv"},
                {"name": "BM_X/10_mean", "iterations": 1, "real_time": 500.0,
                 "cpu_time": 500.0, "time_unit": "ns", "aggregate": "mean"}]
        (self.current / "BENCH_a.json").write_text(
            json.dumps({"bench": "a", "runs": runs}))
        code, out, _ = run_compare(self.args())
        self.assertEqual(code, 0)
        self.assertNotIn("BM_X/10_cv", out)
        self.assertNotIn("BM_X/10_mean", out)

    def test_repeated_runs_compare_by_median(self):
        # Five repetitions with two outliers: the median (101) is within
        # 15% of the baseline although the mean (172) is not.
        write_bench(self.baseline, "BENCH_a.json", {"BM_X/10": 100.0})
        runs = [{"name": "BM_X/10", "iterations": 10, "real_time": t,
                 "cpu_time": t, "time_unit": "ns"}
                for t in (99.0, 400.0, 101.0, 250.0, 10.0)]
        (self.current / "BENCH_a.json").write_text(
            json.dumps({"bench": "a", "runs": runs}))
        code, out, _ = run_compare(self.args())
        self.assertEqual(code, 0)
        self.assertIn("OK         BENCH_a.json:BM_X/10 1.01x", out)
        self.assertEqual(bench_compare.load_runs(self.current / "BENCH_a.json"),
                         {"BM_X/10": 101.0})

    def test_normalize_mode_ignores_uniform_machine_speed(self):
        # Current machine is 3x slower across the board: absolute comparison
        # would scream regression, normalized comparison passes.
        write_bench(self.baseline, "BENCH_a.json",
                    {"BM_Ref/1": 10.0, "BM_X/10": 100.0})
        write_bench(self.current, "BENCH_a.json",
                    {"BM_Ref/1": 30.0, "BM_X/10": 300.0})
        code, _, _ = run_compare(self.args())
        self.assertEqual(code, 1)
        code, _, _ = run_compare(self.args("--normalize", "BM_Ref/1"))
        self.assertEqual(code, 0)

    def test_normalize_detects_relative_regression(self):
        write_bench(self.baseline, "BENCH_a.json",
                    {"BM_Ref/1": 10.0, "BM_X/10": 100.0})
        write_bench(self.current, "BENCH_a.json",
                    {"BM_Ref/1": 10.0, "BM_X/10": 200.0})
        code, out, _ = run_compare(self.args("--normalize", "BM_Ref/1"))
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_normalize_missing_reference_is_error(self):
        write_bench(self.baseline, "BENCH_a.json", {"BM_X/10": 100.0})
        write_bench(self.current, "BENCH_a.json", {"BM_X/10": 100.0})
        code, _, err = run_compare(self.args("--normalize", "BM_Nope/1"))
        self.assertEqual(code, 2)
        self.assertIn("BM_Nope/1", err)

    def _write_invariant(self, min_ratio):
        (self.baseline / "tracked.json").write_text(json.dumps({
            "invariants": [{
                "file": "BENCH_a.json",
                "numerator": "BM_Full/200",
                "denominator": "BM_Inc/200",
                "min_ratio": min_ratio,
            }]}))

    def test_invariant_satisfied(self):
        write_bench(self.baseline, "BENCH_a.json",
                    {"BM_Full/200": 1000.0, "BM_Inc/200": 100.0})
        write_bench(self.current, "BENCH_a.json",
                    {"BM_Full/200": 900.0, "BM_Inc/200": 100.0})
        self._write_invariant(5.0)
        code, out, _ = run_compare(self.args())
        self.assertEqual(code, 0)
        self.assertIn("invariant", out)

    def test_invariant_violation_fails(self):
        write_bench(self.baseline, "BENCH_a.json",
                    {"BM_Full/200": 1000.0, "BM_Inc/200": 100.0})
        # Incremental path broke: only 2x faster than full now.
        write_bench(self.current, "BENCH_a.json",
                    {"BM_Full/200": 1000.0, "BM_Inc/200": 500.0})
        self._write_invariant(5.0)
        code, out, err = run_compare(self.args())
        self.assertEqual(code, 1)
        self.assertIn("VIOLATION", out)
        self.assertIn("BM_Full/200", err)

    def test_invariant_missing_run_is_error(self):
        write_bench(self.baseline, "BENCH_a.json", {"BM_Full/200": 1000.0})
        write_bench(self.current, "BENCH_a.json", {"BM_Full/200": 1000.0})
        self._write_invariant(5.0)
        code, _, err = run_compare(self.args())
        self.assertEqual(code, 2)
        self.assertIn("BM_Inc/200", err)

    def _write_max_invariant(self, max_ratio):
        # An overhead ceiling: the fleet round may cost at most max_ratio x
        # the in-process round.
        (self.baseline / "tracked.json").write_text(json.dumps({
            "invariants": [{
                "file": "BENCH_a.json",
                "numerator": "BM_Fleet/1",
                "denominator": "BM_InProc",
                "max_ratio": max_ratio,
            }]}))

    def test_max_ratio_invariant_satisfied(self):
        write_bench(self.baseline, "BENCH_a.json",
                    {"BM_Fleet/1": 150.0, "BM_InProc": 100.0})
        write_bench(self.current, "BENCH_a.json",
                    {"BM_Fleet/1": 150.0, "BM_InProc": 100.0})
        self._write_max_invariant(3.0)
        code, out, _ = run_compare(self.args())
        self.assertEqual(code, 0)
        self.assertIn("<= 3.0x", out)

    def test_max_ratio_invariant_violation_fails(self):
        write_bench(self.baseline, "BENCH_a.json",
                    {"BM_Fleet/1": 120.0, "BM_InProc": 100.0})
        # Dispatch path regressed: fleet rounds now cost 5x in-process.
        write_bench(self.current, "BENCH_a.json",
                    {"BM_Fleet/1": 500.0, "BM_InProc": 100.0})
        self._write_max_invariant(3.0)
        code, out, err = run_compare(self.args())
        self.assertEqual(code, 1)
        self.assertIn("VIOLATION", out)
        self.assertIn("BM_Fleet/1", err)

    def test_invariant_with_both_bounds_enforces_a_band(self):
        write_bench(self.baseline, "BENCH_a.json",
                    {"BM_Fleet/1": 120.0, "BM_InProc": 100.0})
        write_bench(self.current, "BENCH_a.json",
                    {"BM_Fleet/1": 50.0, "BM_InProc": 100.0})
        (self.baseline / "tracked.json").write_text(json.dumps({
            "invariants": [{
                "file": "BENCH_a.json",
                "numerator": "BM_Fleet/1",
                "denominator": "BM_InProc",
                "min_ratio": 0.9,
                "max_ratio": 3.0,
            }]}))
        code, out, _ = run_compare(self.args())
        self.assertEqual(code, 1)
        self.assertIn("VIOLATION", out)

    def test_invariant_without_any_bound_is_error(self):
        write_bench(self.baseline, "BENCH_a.json",
                    {"BM_Fleet/1": 120.0, "BM_InProc": 100.0})
        write_bench(self.current, "BENCH_a.json",
                    {"BM_Fleet/1": 120.0, "BM_InProc": 100.0})
        (self.baseline / "tracked.json").write_text(json.dumps({
            "invariants": [{
                "file": "BENCH_a.json",
                "numerator": "BM_Fleet/1",
                "denominator": "BM_InProc",
            }]}))
        code, _, err = run_compare(self.args())
        self.assertEqual(code, 2)
        self.assertIn("min_ratio and/or max_ratio", err)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Compare BENCH_*.json micro-benchmark snapshots against committed baselines.

The perf-trajectory gate for the BO hot path (DESIGN.md par.13): CI runs the
micro benches, then this script compares the fresh BENCH_*.json files in
--current-dir against the committed snapshots in --baseline-dir.

Each file's runs are reduced to one time per run name first: aggregate rows
(the mean/median/stddev/cv rows that --benchmark_repetitions adds, marked
"aggregate" by bench/common/micro_report.hpp) are skipped, and the repeated
runs of one name compare by their median real_time.

Checks, in order:

1. Per-run comparison: for every run name present in both files, the current
   real_time may not exceed the baseline by more than --threshold (default
   15%). Improvements are reported but never fail. Because absolute times are
   machine-dependent, --normalize <run-name> divides every time by that run's
   time *within the same file* before comparing, turning the check into a
   relative-shape comparison that transfers across machines.
2. Tracked invariants: <baseline-dir>/tracked.json pins machine-independent
   ratios, evaluated on the *current* files only. Each invariant carries
   min_ratio and/or max_ratio bounds — a floor pins a ratio that must
   persist (e.g. traced-off span overhead within 2%), a ceiling caps a cost
   (e.g. fleet round over in-process round, or the incremental GP refit
   over a fixed calibration run).

Exit codes:
  0  no regression (missing baseline files only produce warnings)
  1  regression beyond threshold, or a tracked invariant violated
  2  malformed JSON, missing --normalize/invariant run names, or usage error
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2


class CompareError(Exception):
    """Malformed input: missing keys, bad JSON, unusable values."""


def load_runs(path: Path) -> dict[str, float]:
    """Maps run name -> median real_time for one BENCH_*.json file."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CompareError(f"{path}: unreadable or malformed JSON: {exc}")
    runs = doc.get("runs")
    if not isinstance(runs, list):
        raise CompareError(f"{path}: missing 'runs' array")
    times: dict[str, list[float]] = {}
    for run in runs:
        if not isinstance(run, dict) or "name" not in run:
            raise CompareError(f"{path}: run entry without a name")
        if "error" in run:
            continue  # benchmark-level failures are not timing data
        if "aggregate" in run:
            continue  # statistics over repetitions, not a run
        time = run.get("real_time")
        if not isinstance(time, (int, float)) or time <= 0:
            raise CompareError(
                f"{path}: run '{run['name']}' has no positive real_time")
        times.setdefault(str(run["name"]), []).append(float(time))
    if not times:
        raise CompareError(f"{path}: no usable runs")
    return {name: statistics.median(values) for name, values in times.items()}


def normalize(runs: dict[str, float], reference: str,
              path: Path) -> dict[str, float]:
    if reference not in runs:
        raise CompareError(
            f"{path}: --normalize run '{reference}' not present")
    ref = runs[reference]
    return {name: time / ref for name, time in runs.items()}


def compare_file(baseline: dict[str, float], current: dict[str, float],
                 threshold: float, label: str) -> list[str]:
    """Returns regression messages; prints improvements and warnings."""
    regressions: list[str] = []
    for name in sorted(current):
        if name not in baseline:
            print(f"NEW        {label}:{name} (no baseline; not compared)")
            continue
        base, cur = baseline[name], current[name]
        ratio = cur / base
        if ratio > 1.0 + threshold:
            regressions.append(
                f"{label}:{name} regressed {ratio:.2f}x "
                f"({base:.1f} -> {cur:.1f})")
            print(f"REGRESSION {label}:{name} {ratio:.2f}x "
                  f"({base:.1f} -> {cur:.1f})")
        elif ratio < 1.0 - threshold:
            print(f"IMPROVED   {label}:{name} {1.0 / ratio:.2f}x faster "
                  f"({base:.1f} -> {cur:.1f})")
        else:
            print(f"OK         {label}:{name} {ratio:.2f}x")
    for name in sorted(set(baseline) - set(current)):
        print(f"WARNING    {label}:{name} present in baseline but not in "
              "current run")
    return regressions


def check_invariants(tracked_path: Path, current_dir: Path) -> list[str]:
    """Evaluates tracked.json ratio invariants on the current snapshots."""
    if not tracked_path.exists():
        return []
    try:
        doc = json.loads(tracked_path.read_text())
        invariants = doc["invariants"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise CompareError(f"{tracked_path}: malformed: {exc}")
    violations: list[str] = []
    for inv in invariants:
        try:
            file_name = inv["file"]
            numerator = inv["numerator"]
            denominator = inv["denominator"]
        except (TypeError, KeyError) as exc:
            raise CompareError(f"{tracked_path}: invariant missing key: {exc}")
        min_ratio = inv.get("min_ratio")
        max_ratio = inv.get("max_ratio")
        if min_ratio is None and max_ratio is None:
            raise CompareError(
                f"{tracked_path}: invariant {numerator}/{denominator} needs "
                "min_ratio and/or max_ratio")
        current_file = current_dir / file_name
        if not current_file.exists():
            print(f"WARNING    invariant {numerator}/{denominator}: "
                  f"{file_name} not in current dir, skipped")
            continue
        runs = load_runs(current_file)
        for required in (numerator, denominator):
            if required not in runs:
                raise CompareError(
                    f"{current_file}: invariant run '{required}' not present")
        ratio = runs[numerator] / runs[denominator]
        bounds = []
        violated = False
        if min_ratio is not None:
            bounds.append(f">= {float(min_ratio):.1f}x")
            violated = violated or ratio < float(min_ratio)
        if max_ratio is not None:
            bounds.append(f"<= {float(max_ratio):.1f}x")
            violated = violated or ratio > float(max_ratio)
        status = "VIOLATION " if violated else "OK        "
        print(f"{status} invariant {numerator} / {denominator} = "
              f"{ratio:.1f}x (required {' and '.join(bounds)})")
        if violated:
            violations.append(
                f"{file_name}: {numerator}/{denominator} = {ratio:.1f}x "
                f"outside [{' , '.join(bounds)}]")
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", type=Path, required=True,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--current-dir", type=Path, required=True,
                        help="directory of freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative slowdown (default 0.15)")
    parser.add_argument("--normalize", default=None, metavar="RUN",
                        help="divide all times by this run's time within the "
                             "same file before comparing (cross-machine mode)")
    args = parser.parse_args(argv)
    if args.threshold < 0:
        print("error: --threshold must be >= 0", file=sys.stderr)
        return EXIT_ERROR

    try:
        current_files = sorted(args.current_dir.glob("BENCH_*.json"))
        if not current_files:
            print(f"error: no BENCH_*.json in {args.current_dir}",
                  file=sys.stderr)
            return EXIT_ERROR
        failures: list[str] = []
        for current_file in current_files:
            baseline_file = args.baseline_dir / current_file.name
            if not baseline_file.exists():
                print(f"WARNING    no baseline for {current_file.name}; "
                      "commit one from a Release run to arm the gate")
                continue
            baseline = load_runs(baseline_file)
            current = load_runs(current_file)
            if args.normalize is not None:
                baseline = normalize(baseline, args.normalize, baseline_file)
                current = normalize(current, args.normalize, current_file)
            failures += compare_file(baseline, current, args.threshold,
                                     current_file.name)
        failures += check_invariants(args.baseline_dir / "tracked.json",
                                     args.current_dir)
    except CompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if failures:
        print(f"\n{len(failures)} perf check(s) failed:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return EXIT_REGRESSION
    print("\nAll perf checks passed.")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

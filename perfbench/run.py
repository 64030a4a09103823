#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload bo_fig6|fleet_rand \
      --seed N --seconds S --trace 0|1

The first run configures and builds a Release tree with contracts off in
.bench_build/perfbench (about a minute on 4 cores); later runs only check
that it is up to date. Build output goes to stderr. The driver's report,
ending in one JSON line, goes to stdout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def run_quietly(command: list[str]) -> None:
    """Runs a build step, showing its output only when it fails."""
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: build step failed: {' '.join(command)}")


def build() -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no HyperPower sources in {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quietly(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DHYPERPOWER_CONTRACTS=OFF"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quietly(["cmake", "--build", str(BUILD), "-j", jobs,
                 "--target", "perfbench"])
    return BUILD / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bo_fig6", "fleet_rand"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    work_dir = BUILD / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--digests", str(HERE / "digests.txt"), "--work-dir", str(work_dir)],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

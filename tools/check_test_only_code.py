#!/usr/bin/env python3
"""Fails on library functions that only tests reach.

Builds every program of the repository without its tests: the root project
(the CLI, the fleet worker, the benches and the examples) and the
perfbench/ project. Both are compiled at -O0 with -ffunction-sections and
linked with --gc-sections, so an executable holds exactly the functions it
can reach. A global `hp::` function that a libhp_*.a archive defines and no
executable holds is reached by tests alone. Each one must either go or be
named in KEEP below, with the reason a test needs it.

Functions are matched by their qualified name, read from the mangled
symbol (`_ZN2hp...`), not by the demangled text: a std:: template whose
return type is an hp:: class demangles to a line that starts with "hp::",
but it is not an hp:: function.

Usage (from the repository root):
  python3 tools/check_test_only_code.py [--build-dir DIR]

The two trees go to DIR/root and DIR/perfbench (default: build-gc/), built
with up to 4 jobs. A first run builds both (about a minute and a half on 4
cores); later runs rebuild only what changed.

Exit codes:
  0  every test-only function is on KEEP, and every KEEP entry still is one
  1  a test-only function missing from KEEP, or a stale KEEP entry
  2  a build step failed, or a usage error
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

# Every test-only hp:: function the library keeps, by its demangled
# signature, with the one reason a test needs it.
KEEP: dict[str, str] = {
    "hp::hw::GpuSimulator::loaded_cost() const":
        "the simulator's hidden ground truth, which the sensor and "
        "profiler tests measure against",
    "hp::linalg::Matrix::Matrix(std::initializer_list<"
    "std::initializer_list<double> >)":
        "the constructor the tests build their input matrices with",
    "hp::obs::Counter::reset()":
        "resets a registered counter between tests",
    "hp::obs::FlightRecorder::reset()":
        "drops the process-wide flight recorder's ring between tests",
    "hp::obs::MetricsRegistry::reset()":
        "resets the process-wide metrics registry between tests",
}

# The nested name of a function, a const member or a local entity (a
# lambda) whose outermost namespace is hp.
HP_FUNCTION = re.compile(r"^_ZZ?N[rVKRO]*2hp")

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


class BuildError(Exception):
    """A configure, build or nm step failed."""


def run(command: list[str], stdin: str | None = None) -> str:
    done = subprocess.run(command, input=stdin, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        raise BuildError(f"{' '.join(command)} failed:\n{done.stdout}")
    return done.stdout


def build(source: Path, tree: Path, extra: list[str],
          targets: list[str]) -> None:
    if not (tree / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(source), "-B", str(tree), *FLAGS, *extra])
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(tree), "-j", jobs]
    for target in targets:
        command += ["--target", target]
    run(command)


def defined_symbols(path: Path, kinds: str) -> set[str]:
    """The mangled names `nm` lists as defined in `path` with a type in
    `kinds` (every type when empty)."""
    names = set()
    for line in run(["nm", "--defined-only", str(path)]).splitlines():
        fields = line.split()
        if len(fields) == 3 and (not kinds or fields[1] in kinds):
            names.add(fields[2])
    return names


def is_elf_executable(path: Path) -> bool:
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with path.open("rb") as handle:
        return handle.read(4) == b"\x7fELF"


def executables(tree: Path) -> list[Path]:
    found = []
    for directory, subdirs, files in os.walk(tree):
        subdirs[:] = [d for d in subdirs if d != "CMakeFiles"]
        found += [Path(directory) / f for f in files
                  if is_elf_executable(Path(directory) / f)]
    return sorted(found)


def demangle(names: list[str]) -> dict[str, str]:
    lines = run(["c++filt"], stdin="\n".join(names) + "\n").splitlines()
    return dict(zip(names, lines))


def test_only_functions(library: set[str], linked: set[str]) -> set[str]:
    """The hp:: functions that `library` defines and no program links, by
    demangled name (a constructor's C1 and C2 symbols become one name)."""
    mangled = sorted(n for n in library - linked if HP_FUNCTION.match(n))
    return set(demangle(mangled).values()) if mangled else set()


def check(found: set[str], keep: dict[str, str]) -> list[str]:
    """One line per test-only function outside `keep`, and per `keep`
    entry that is not (or no longer) a test-only function."""
    problems = [f"test-only: {name}" for name in sorted(found - set(keep))]
    problems += [f"stale keep entry (no longer test-only): {name}"
                 for name in sorted(set(keep) - found)]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, default=ROOT / "build-gc")
    args = parser.parse_args()

    root_tree = args.build_dir / "root"
    bench_tree = args.build_dir / "perfbench"
    try:
        build(ROOT, root_tree, ["-DHYPERPOWER_BUILD_TESTS=OFF"], [])
        build(ROOT / "perfbench", bench_tree, [], ["perfbench"])
        library = set()
        for archive in sorted(root_tree.rglob("libhp_*.a")):
            library |= defined_symbols(archive, "TW")
        linked = set()
        programs = executables(root_tree) + executables(bench_tree)
        for program in programs:
            linked |= defined_symbols(program, "")
        found = test_only_functions(library, linked)
    except BuildError as exc:
        print(f"check_test_only_code: {exc}", file=sys.stderr)
        return EXIT_ERROR

    print(f"{len(programs)} programs; {len(found)} hp:: library functions "
          f"only tests reach, {len(found & set(KEEP))} of them kept")
    problems = check(found, KEEP)
    for line in problems:
        print(line)
    return EXIT_FINDINGS if problems else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Project linter: invariants clang-tidy cannot express.

Rules (see DESIGN.md §10 for rationale and how to add one):

  determinism-random    No rand()/srand()/std::random_device outside
                        src/stats — every random draw must flow through
                        stats::Rng so runs stay seed-reproducible.
  library-io            No std::cout/std::cerr/printf-family writes in
                        library code (src/); report through the src/obs
                        Logger. Sink implementations in src/obs are the
                        one sanctioned exception.
  exception-swallow     Every `catch (...)` must rethrow or capture via
                        std::current_exception(); silently swallowing
                        unknown exceptions hides contract violations.
  failure-recording     In src/core and src/hw, every catch clause (typed
                        or catch-all) must rethrow, capture via
                        std::current_exception(), or visibly record the
                        failure (EvalFailure / classify_failure, a failure
                        counter or degraded flag, or a typed error
                        return). The fault-tolerance layer depends on no
                        evaluation or sensor failure vanishing silently.
  raw-objective-evaluate
                        In library code (src/), Objective::evaluate /
                        evaluate_detached may only be invoked by the
                        evaluation pipeline (the Optimizer's driver loop
                        through ResilientEvaluator) and the objective
                        decorators — every production evaluation must
                        pass through the retry/journal/recording path
                        (DESIGN.md §12). Hardware cost-model evaluate()
                        calls and tests are exempt.
  study-ask-tell        In library code (src/), direct mutation of a run's
                        proposal strategy — Proposer::propose /
                        propose_batch / begin_run / observe — is reserved
                        for core::Study (src/core/study.cpp); the run's
                        books are private Study members, so the compiler
                        guards them. Optimizer, dist, and cli layers
                        must go through ask()/tell(): the ask/tell
                        confinement is what guarantees a trace stays a
                        pure function of (seed, batch_size) no matter
                        which driver executes the trials (DESIGN.md §16).
  trace-name-literal    Span/phase names handed to the tracer (ScopedTimer
                        constructions, tracer().instant(), begin_span())
                        must be stable dotted string literals
                        ("optimizer.round.propose") — never runtime-
                        formatted strings. The tracer ring stores the
                        pointer, span IDs hash the name, and the summary
                        tooling groups by it, so a dynamic name is both a
                        lifetime bug and a cardinality explosion.
  raw-process-control   fork/exec/pipe/waitpid and friends may appear in
                        library code (src/) only inside src/dist — process
                        lifecycle belongs to the WorkerSupervisor, which
                        guarantees every child is reaped (no zombies) and
                        every pipe fd is closed. Anything else that needs a
                        process goes through the fleet (DESIGN.md §15).
  raw-mutex             Library code (src/) must synchronize through the
                        annotated wrappers in core/thread_annotations.hpp
                        (hp::Mutex / hp::MutexLock / hp::CondVar) — never
                        raw std::mutex, std::lock_guard, std::unique_lock,
                        std::condition_variable, or their headers. A raw
                        primitive is invisible to Clang thread-safety
                        analysis, so guarded state behind it silently
                        drops out of the compile-time contract
                        (DESIGN.md §14). The annotation header itself is
                        the one sanctioned exception: it wraps the std
                        primitives.
  raw-thread            Thread creation (std::thread, std::jthread,
                        std::async, std::promise, std::packaged_task) may
                        appear in library code (src/) only in src/parallel
                        (parallel::ThreadPool) and src/cli/worker_main.cpp
                        (the fleet worker's heartbeat). Concurrent work
                        runs on the pool, and a hung evaluation is killed
                        by the fleet's job deadline, so an ad-hoc watchdog
                        or helper thread needs a reviewed exemption
                        (DESIGN.md §14, §15). std::this_thread and
                        std::thread::hardware_concurrency stay legal.
  pragma-once           Every header starts with #pragma once.
  self-include-first    A library .cpp includes its own header first, so
                        each header proves it is self-contained.
  include-exists        Quoted project includes resolve to real files
                        (catches stale paths left by refactors).
  no-bits-include       No <bits/...> includes (libstdc++ internals).
  header-no-iostream    Headers use <iosfwd>, never <iostream> — the
                        static init fiasco plus compile-time cost.

Usage: tools/lint.py [--root DIR]
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CPP_EXTENSIONS = {".cpp", ".hpp", ".h", ".cc", ".cxx"}
SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")

# (rule, regex, message). Patterns are matched per line, comments stripped.
RANDOMNESS = [
    (re.compile(r"std::random_device|\brandom_device\b"),
     "std::random_device breaks run reproducibility; derive streams from "
     "stats::Rng / stats::stream_seed instead"),
    # rand() is nullary and srand() unary, which keeps locals that happen
    # to be named `rand` (e.g. a random-search Optimizer) out of scope.
    (re.compile(r"(?<![\w:.])rand\s*\(\s*\)|(?<![\w:.])srand\s*\("),
     "C rand()/srand() is non-deterministic across platforms; use "
     "stats::Rng"),
]

LIBRARY_IO = re.compile(
    r"std::cout|std::cerr|(?<![\w:.])(?:printf|fprintf|puts|putchar)\s*\(")

COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_noise(line: str) -> str:
    """Removes string literals first, then // comments."""
    return COMMENT_RE.sub("", STRING_RE.sub('""', line))


def iter_source_files(root: Path):
    for dirname in SCAN_DIRS:
        base = root / dirname
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CPP_EXTENSIONS and path.is_file():
                yield path


def in_dir(path: Path, root: Path, *parts: str) -> bool:
    try:
        rel = path.relative_to(root)
    except ValueError:
        return False
    return rel.parts[: len(parts)] == parts


def check_randomness(path, root, lines, findings):
    if not in_dir(path, root, "src") and not in_dir(path, root, "bench"):
        return
    if in_dir(path, root, "src", "stats"):
        return
    for lineno, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        for pattern, message in RANDOMNESS:
            if pattern.search(line):
                findings.append(
                    Finding(path, lineno, "determinism-random", message))


def check_library_io(path, root, lines, findings):
    if not in_dir(path, root, "src") or in_dir(path, root, "src", "obs"):
        return
    for lineno, raw in enumerate(lines, 1):
        if LIBRARY_IO.search(strip_noise(raw)):
            findings.append(Finding(
                path, lineno, "library-io",
                "library code must report through the src/obs Logger, not "
                "write to stdio directly"))


CATCH_RE = re.compile(r"catch\s*\(([^)]*)\)")
RETHROW_RE = re.compile(r"\bthrow\b|current_exception|rethrow_exception")
# Markers that a handler recorded the failure instead of dropping it:
# EvalFailure construction/classification, failure counters and flags
# (failures, failed, failure_kind, profile_failures), degraded-sensor
# fallback, or mapping to a typed error return (ErrorUnknown, fail()/bad()
# error-raising helpers).
FAILURE_RECORD_RE = re.compile(
    r"EvalFailure|classify_failure|FailureKind|[Ff]ail|[Ee]rror|degraded|"
    r"bad\(")


def catch_clauses(text):
    """Yields (offset, clause, body) for each catch in stripped text."""
    for match in CATCH_RE.finditer(text):
        brace = text.find("{", match.end())
        if brace < 0:
            continue
        depth, end = 0, len(text)
        for i in range(brace, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        yield match.start(), match.group(1).strip(), text[brace:end]


def check_exception_swallow(path, root, lines, findings):
    text = "\n".join(strip_noise(line) for line in lines)
    for offset, clause, body in catch_clauses(text):
        if clause != "..." or RETHROW_RE.search(body):
            continue
        lineno = text.count("\n", 0, offset) + 1
        findings.append(Finding(
            path, lineno, "exception-swallow",
            "catch (...) must rethrow or capture via "
            "std::current_exception(); swallowing hides failures"))


def check_failure_recording(path, root, lines, findings):
    if not (in_dir(path, root, "src", "core")
            or in_dir(path, root, "src", "hw")):
        return
    text = "\n".join(strip_noise(line) for line in lines)
    for offset, _clause, body in catch_clauses(text):
        if RETHROW_RE.search(body) or FAILURE_RECORD_RE.search(body):
            continue
        lineno = text.count("\n", 0, offset) + 1
        findings.append(Finding(
            path, lineno, "failure-recording",
            "a catch in src/core or src/hw must rethrow, capture via "
            "std::current_exception(), or record the failure (EvalFailure "
            "/ classify_failure, a failure counter or degraded flag, or a "
            "typed error return)"))


# Member calls to evaluate()/evaluate_detached() — the raw objective entry
# points. Declarations/overrides don't match (no receiver).
OBJECTIVE_EVALUATE_RE = re.compile(r"(?:\.|->)\s*evaluate(?:_detached)?\s*\(")
# The sanctioned callers: the Optimizer (through ResilientEvaluator), the
# retry wrapper itself, the fault-injection decorator, Objective's own
# default-method implementations, and the fleet worker loop (which runs
# the same ResilientEvaluator path on behalf of a remote Optimizer).
OBJECTIVE_EVALUATE_ALLOWLIST = (
    ("src", "core", "optimizer.cpp"),
    ("src", "core", "resilience.cpp"),
    ("src", "core", "fault_injection.cpp"),
    ("src", "core", "objective.cpp"),
    ("src", "cli", "worker_main.cpp"),
)


def check_raw_objective_evaluate(path, root, lines, findings):
    if not in_dir(path, root, "src"):
        return
    if any(in_dir(path, root, *parts)
           for parts in OBJECTIVE_EVALUATE_ALLOWLIST):
        return
    for lineno, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if not OBJECTIVE_EVALUATE_RE.search(line):
            continue
        # Hardware cost models share the method name (cost_model().evaluate)
        # but are cheap analytic queries, not objective evaluations.
        if "cost_model" in line:
            continue
        findings.append(Finding(
            path, lineno, "raw-objective-evaluate",
            "Objective::evaluate/evaluate_detached must go through the "
            "Optimizer's driver loop (ResilientEvaluator) so every "
            "evaluation is retried, journaled, and recorded"))


# Member calls that mutate a run's proposal state. propose, propose_batch,
# begin_run and observe are Proposer's own member names in library code
# (Proposer::observe is the only observe in src/). Subclass internals (a
# proposer calling its own propose() in a lambda) have no member receiver
# and don't match. The run's books (trace, incumbent, failure streak) are
# private members of core::Study, so no rule is needed for them.
STUDY_MUTATION_RE = re.compile(
    r"(?:\.|->)\s*(?:propose_batch|propose|begin_run|observe)\s*\(")
# The one sanctioned owner of ask/tell state transitions.
STUDY_MUTATION_ALLOWLIST = (
    ("src", "core", "study.cpp"),
)


def check_study_ask_tell(path, root, lines, findings):
    if not in_dir(path, root, "src"):
        return
    if any(in_dir(path, root, *parts) for parts in STUDY_MUTATION_ALLOWLIST):
        return
    for lineno, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        if not STUDY_MUTATION_RE.search(line):
            continue
        findings.append(Finding(
            path, lineno, "study-ask-tell",
            "Proposer mutation is confined to core::Study "
            "(src/core/study.cpp); drivers and frontends must go through "
            "Study::ask/tell so the trace stays a pure function of "
            "(seed, batch_size) regardless of the executor (DESIGN.md §16)"))


# Call sites that open a span or record an instant: the first argument is
# the span name. `timer/span .emplace` covers deferred construction of an
# optional<ScopedTimer>.
TRACE_NAME_SITES = re.compile(
    r"(?:\bScopedTimer\s+\w+\s*\(|\bScopedTimer\s*\(|\.instant\s*\(|"
    r"\bbegin_span\s*\(|\w*(?:timer|span)\w*\.emplace\s*\()")
# A stable name: a dotted literal, or a ternary choosing between two
# dotted literals (still a closed, static set of names).
TRACE_NAME_LITERAL = re.compile(
    r'^\s*(?:[^"?]+\?\s*)?"[a-z][a-z0-9_.]*"'
    r'(?:\s*:\s*"[a-z][a-z0-9_.]*")?\s*[,)]')


def strip_comment_keep_strings(line: str) -> str:
    """Drops a // comment while leaving string literals intact."""
    in_string = False
    i = 0
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == "/" and line[i:i + 2] == "//":
            return line[:i]
        i += 1
    return line


def check_trace_name_literal(path, root, lines, findings):
    # The tracer's own sources declare these functions (parameter lists
    # would false-positive), and tests legitimately probe edge cases.
    if not in_dir(path, root, "src") or in_dir(path, root, "src", "obs"):
        return
    for lineno, raw in enumerate(lines, 1):
        line = strip_comment_keep_strings(raw)
        m = TRACE_NAME_SITES.search(line)
        if not m:
            continue
        rest = line[m.end():]
        if not rest.strip():
            # Name on the next line: check it there.
            rest = strip_comment_keep_strings(
                lines[lineno]) if lineno < len(lines) else ""
        if not TRACE_NAME_LITERAL.match(rest.strip()):
            findings.append(Finding(
                path, lineno, "trace-name-literal",
                "span/instant names must be stable dotted string literals "
                '("optimizer.round.propose"); the tracer stores the pointer '
                "and groups by name, so runtime-formatted strings are "
                "forbidden"))


# Process-control primitives: creation, replacement, and reaping. A match
# requires the call position (optionally ::-qualified); member calls like
# table.fork() and identifiers merely containing the names don't match.
RAW_PROCESS_RE = re.compile(
    r"(?<![\w.])(?:::\s*)?(?:fork|vfork|pipe2?|waitpid|wait4|"
    r"execv[pe]?|execl[pe]?|posix_spawn)\s*\(")
RAW_PROCESS_ALLOWED = ("src", "dist")


def check_raw_process_control(path, root, lines, findings):
    if not in_dir(path, root, "src") or in_dir(path, root,
                                               *RAW_PROCESS_ALLOWED):
        return
    for lineno, raw in enumerate(lines, 1):
        if RAW_PROCESS_RE.search(strip_noise(raw)):
            findings.append(Finding(
                path, lineno, "raw-process-control",
                "fork/exec/pipe/waitpid in library code is reserved for "
                "src/dist — the WorkerSupervisor owns process lifecycle so "
                "children are always reaped and pipe fds always closed "
                "(DESIGN.md §15)"))


# Raw std synchronization primitives and the headers that provide them.
# Declaration-position uses (members, locals, includes) all match; the
# wrappers in core/thread_annotations.hpp are the sanctioned owner.
RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b|"
    r"std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"std::condition_variable(?:_any)?\b")
RAW_MUTEX_INCLUDE = {"mutex", "shared_mutex", "condition_variable"}
RAW_MUTEX_ALLOWED = ("src", "core", "thread_annotations.hpp")


def check_raw_mutex(path, root, lines, findings):
    if not in_dir(path, root, "src") or in_dir(path, root, *RAW_MUTEX_ALLOWED):
        return
    for lineno, raw in enumerate(lines, 1):
        line = strip_noise(raw)
        m = INCLUDE_RE.match(line)
        if m:
            if m.group(1) == "<" and m.group(2) in RAW_MUTEX_INCLUDE:
                findings.append(Finding(
                    path, lineno, "raw-mutex",
                    f"<{m.group(2)}> provides raw synchronization "
                    "primitives; include core/thread_annotations.hpp and "
                    "use hp::Mutex / hp::MutexLock / hp::CondVar"))
            continue
        if RAW_MUTEX_RE.search(line):
            findings.append(Finding(
                path, lineno, "raw-mutex",
                "raw std synchronization is invisible to Clang "
                "thread-safety analysis; use the annotated hp::Mutex / "
                "hp::MutexLock / hp::CondVar wrappers from "
                "core/thread_annotations.hpp (DESIGN.md §14)"))


# Thread creation and the promise/future plumbing of hand-rolled workers.
# std::thread's static hardware_concurrency() and its id type create
# nothing; std::this_thread is a different name and never matches.
RAW_THREAD_RE = re.compile(
    r"std::j?thread\b(?!\s*::\s*(?:hardware_concurrency|id)\b)|"
    r"std::(?:async|promise|packaged_task)\b")
RAW_THREAD_ALLOWLIST = (
    ("src", "parallel"),
    ("src", "cli", "worker_main.cpp"),
)


def check_raw_thread(path, root, lines, findings):
    if not in_dir(path, root, "src"):
        return
    if any(in_dir(path, root, *parts) for parts in RAW_THREAD_ALLOWLIST):
        return
    for lineno, raw in enumerate(lines, 1):
        if RAW_THREAD_RE.search(strip_noise(raw)):
            findings.append(Finding(
                path, lineno, "raw-thread",
                "thread creation in library code is reserved for "
                "parallel::ThreadPool (src/parallel) and the fleet worker's "
                "heartbeat (src/cli/worker_main.cpp); run concurrent work "
                "on the pool and bound a hung evaluation with the fleet's "
                "job deadline (DESIGN.md §14, §15)"))


def check_pragma_once(path, root, lines, findings):
    if path.suffix not in {".hpp", ".h"}:
        return
    for raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("//"):
            continue
        if stripped != "#pragma once":
            findings.append(Finding(
                path, 1, "pragma-once",
                "headers must start with #pragma once"))
        return


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')


def parsed_includes(lines):
    for lineno, raw in enumerate(lines, 1):
        m = INCLUDE_RE.match(raw)
        if m:
            yield lineno, m.group(1) == '"', m.group(2)


def check_includes(path, root, lines, findings):
    quoted_seen = []
    for lineno, is_quoted, target in parsed_includes(lines):
        if not is_quoted:
            if target.startswith("bits/"):
                findings.append(Finding(
                    path, lineno, "no-bits-include",
                    f"<{target}> is a libstdc++ internal; include the "
                    "standard header instead"))
            if target == "iostream" and path.suffix in {".hpp", ".h"}:
                findings.append(Finding(
                    path, lineno, "header-no-iostream",
                    "headers must use <iosfwd>; <iostream> drags in static "
                    "init and slows every includer"))
            continue
        quoted_seen.append((lineno, target))
        resolved = (root / "src" / target, path.parent / target,
                    root / "tests" / target, root / "bench" / target)
        if not any(p.is_file() for p in resolved):
            findings.append(Finding(
                path, lineno, "include-exists",
                f'"{target}" does not resolve against src/, tests/, bench/, '
                "or the including directory"))

    # self-include-first: library .cpp files only (tests/benches aggregate).
    if path.suffix == ".cpp" and in_dir(path, root, "src") and quoted_seen:
        own_header = path.with_suffix(".hpp")
        if own_header.is_file():
            expected = str(own_header.relative_to(root / "src"))
            first_lineno, first_target = quoted_seen[0]
            if first_target != expected:
                findings.append(Finding(
                    path, first_lineno, "self-include-first",
                    f'first include must be "{expected}" so the header '
                    "proves self-contained"))


CHECKS = (
    check_randomness,
    check_library_io,
    check_exception_swallow,
    check_failure_recording,
    check_raw_objective_evaluate,
    check_study_ask_tell,
    check_trace_name_literal,
    check_raw_process_control,
    check_raw_mutex,
    check_raw_thread,
    check_pragma_once,
    check_includes,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: the checkout "
                             "containing this script)")
    args = parser.parse_args()
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"error: {root} does not look like the repo root", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    scanned = 0
    for path in iter_source_files(root):
        scanned += 1
        lines = path.read_text(encoding="utf-8").splitlines()
        for check in CHECKS:
            check(path, root, lines, findings)

    for finding in findings:
        try:
            shown = Finding(finding.path.relative_to(root), finding.line,
                            finding.rule, finding.message)
        except ValueError:
            shown = finding
        print(shown)
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"lint: {scanned} files scanned, {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

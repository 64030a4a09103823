#!/usr/bin/env sh
# Tier-1 verification wrapper, six phases (see tests/README.md):
#   1. default build with warnings as errors + full ctest suite, after
#      checking that every ctest name is free of raw parameter dumps
#   2. ThreadSanitizer rebuild of the concurrency + resilience suites
#      (test_parallel, test_obs, test_resilience, test_integration) and of
#      test_gp, whose kernel ML fit runs its restarts on a thread pool, run
#      directly
#   3. AddressSanitizer (+LeakSanitizer) rebuild, full ctest suite
#   4. fault-injection phase: the fault suites re-run from the ASan build
#      (all fault schedules are fixed-seed, so a failure here is a
#      determinism regression, not bad luck), plus an end-to-end CLI
#      crash/resume exercise compared bit-for-bit
#   5. UndefinedBehaviorSanitizer rebuild (non-recoverable), full ctest
#   6. thread-safety phase: a clang build with -Werror=thread-safety
#      enforcing the annotation contracts in core/thread_annotations.hpp,
#      including the tests/compile_fail/ negative-compilation harness
# plus the project lint gate. Run from anywhere; builds land in the repo
# root as build/, build-tsan/, build-asan/, build-ubsan/,
# build-thread-safety/ (all gitignored).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

jobs=$(nproc 2>/dev/null || echo 2)
cxx=${CXX:-c++}

probe_dir=$(mktemp -d)
trap 'rm -rf "$probe_dir"' EXIT INT TERM

# probe_sanitizer NAME FLAG — verifies the toolchain can compile AND link
# -fsanitize=FLAG. A compiler can accept the flag yet fail at link time
# when the runtime library is not installed, and that failure should read
# as a toolchain gap, not a project bug. Every sanitizer phase fails with
# the same skip-impossible message pattern.
probe_sanitizer() {
  probe_name=$1
  probe_flag=$2
  printf 'int main() { return 0; }\n' > "$probe_dir/probe.cpp"
  if ! "$cxx" "-fsanitize=$probe_flag" -o "$probe_dir/probe" \
      "$probe_dir/probe.cpp" 2> "$probe_dir/probe.err"; then
    echo "ERROR: '$cxx' cannot compile and link with -fsanitize=$probe_flag;" >&2
    echo "       skip-impossible: the $probe_name phase cannot run on" >&2
    echo "       this toolchain. Compiler output:" >&2
    sed 's/^/       /' "$probe_dir/probe.err" >&2
    exit 1
  fi
}

# sanitizer_ctest_phase NAME FLAG BUILD_DIR — configure + build the test
# tree under one sanitizer and run the full ctest suite in it. Benches and
# examples stay off: the suite is the correctness surface, and mixing
# instrumented/uninstrumented objects is what produces false positives.
sanitizer_ctest_phase() {
  phase_name=$1
  phase_flag=$2
  phase_dir=$3
  probe_sanitizer "$phase_name" "$phase_flag"
  cmake -B "$phase_dir" -S . "-DHYPERPOWER_SANITIZE=$phase_flag" \
    -DHYPERPOWER_BUILD_BENCHES=OFF -DHYPERPOWER_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$phase_dir" -j "$jobs"
  ctest --test-dir "$phase_dir" --output-on-failure -j "$jobs"
}

echo "== tier 1: project lint =="
python3 tools/lint.py

echo "== tier 1: default build (warnings as errors) =="
cmake -B build -S . -DHYPERPOWER_WARNINGS_AS_ERRORS=ON >/dev/null
cmake --build build -j "$jobs"
# A parameterized test whose parameter type has no PrintTo overload is
# listed with a raw byte dump ("# GetParam() = 24-byte object <...>"),
# and that dump becomes part of its ctest name. Pointers and struct
# padding in it make the name differ from build to build.
if ctest --test-dir build -N | grep -F 'GetParam() ='; then
  echo "ERROR: the ctest names above embed a raw parameter dump; give the" >&2
  echo "       parameter type a PrintTo overload" >&2
  exit 1
fi
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== tier 1: ThreadSanitizer pass (parallel/obs/resilience/gp suites) =="
probe_sanitizer "ThreadSanitizer" thread
cmake -B build-tsan -S . -DHYPERPOWER_SANITIZE=thread \
  -DHYPERPOWER_BUILD_BENCHES=OFF -DHYPERPOWER_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$jobs" \
  --target test_parallel test_obs test_resilience test_integration test_gp
# Run the freshly built binaries directly. ctest-ing build-tsan would run
# discovery over every registered test target, most of which this phase
# deliberately never builds. test_resilience and test_integration join the
# concurrency suites because retries, fault injection, the journal, and
# batched crash/resume all cross thread boundaries; test_gp because the
# kernel ML fit runs its restarts on the pool it is lent.
./build-tsan/tests/test_parallel
./build-tsan/tests/test_obs
./build-tsan/tests/test_resilience
./build-tsan/tests/test_integration
./build-tsan/tests/test_gp

echo "== tier 1: AddressSanitizer (+LSan) pass (full suite) =="
ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:${ASAN_OPTIONS:-}" \
  sanitizer_ctest_phase "AddressSanitizer" address build-asan

echo "== tier 1: fault-injection pass (deterministic seeds, ASan build) =="
# Focused re-run of the fault suites from the instrumented build, then an
# end-to-end crash/resume exercise against the (default-build) CLI: kill a
# journaled run after four records, resume it, and require the final trace
# and the rebuilt journal to be bit-identical to the uninterrupted run.
./build-asan/tests/test_resilience
./build-asan/tests/test_integration --gtest_filter='FaultTolerance.*'
fault_tmp="$probe_dir/fault"
mkdir -p "$fault_tmp"
cli=./build/tools/hyperpower
"$cli" optimize --problem mnist --device "GTX 1070" --method rand \
  --evals 10 --seed 3 --fault-rate 0.2 --retries 2 \
  --journal "$fault_tmp/full.hpj" --trace "$fault_tmp/full.csv" --quiet
head -5 "$fault_tmp/full.hpj" > "$fault_tmp/resume.hpj"
"$cli" optimize --problem mnist --device "GTX 1070" --method rand \
  --evals 10 --seed 3 --fault-rate 0.2 --retries 2 \
  --journal "$fault_tmp/resume.hpj" --resume \
  --trace "$fault_tmp/resume.csv" --quiet
cmp "$fault_tmp/full.csv" "$fault_tmp/resume.csv"
cmp "$fault_tmp/full.hpj" "$fault_tmp/resume.hpj"
echo "crash/resume trace and journal bit-identical"

echo "== tier 1: UndefinedBehaviorSanitizer pass (full suite) =="
UBSAN_OPTIONS="print_stacktrace=1:${UBSAN_OPTIONS:-}" \
  sanitizer_ctest_phase "UndefinedBehaviorSanitizer" undefined build-ubsan

echo "== tier 1: thread-safety pass (clang -Werror=thread-safety) =="
# Clang is the only compiler with thread-safety analysis; hunt for one
# (CLANGXX overrides, then clang++ and versioned names) and verify it
# actually accepts the flag before configuring. No clang is a toolchain
# gap, reported with the same skip-impossible pattern as the sanitizers.
ts_cxx=""
for candidate in "${CLANGXX:-}" clang++ clang++-21 clang++-20 clang++-19 \
    clang++-18 clang++-17 clang++-16 clang++-15; do
  [ -n "$candidate" ] || continue
  command -v "$candidate" >/dev/null 2>&1 || continue
  printf 'int main() { return 0; }\n' > "$probe_dir/ts_probe.cpp"
  if "$candidate" -Wthread-safety -Werror=thread-safety -fsyntax-only \
      "$probe_dir/ts_probe.cpp" 2> "$probe_dir/ts_probe.err"; then
    ts_cxx=$candidate
    break
  fi
done
if [ -z "$ts_cxx" ]; then
  echo "ERROR: no clang++ with -Wthread-safety support found (set CLANGXX" >&2
  echo "       to override the search);" >&2
  echo "       skip-impossible: the thread-safety phase cannot run on" >&2
  echo "       this toolchain." >&2
  exit 1
fi
# The annotated build must be warning-clean under -Werror=thread-safety,
# and the configure step runs the tests/compile_fail/ harness: each bad
# snippet must be rejected with its expected diagnostic.
cmake -B build-thread-safety -S . -DCMAKE_CXX_COMPILER="$ts_cxx" \
  -DHYPERPOWER_THREAD_SAFETY=ON \
  -DHYPERPOWER_BUILD_BENCHES=OFF -DHYPERPOWER_BUILD_EXAMPLES=OFF
cmake --build build-thread-safety -j "$jobs"

echo "== all tier-1 checks passed =="

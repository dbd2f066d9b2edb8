#!/usr/bin/env bash
# One-command local reproduction of the full static/dynamic analysis gate:
#
#   1. crypto-hygiene + information-flow lint (tools/pprox_lint --flow) over
#      every layered directory, gated against tools/lint_baseline.json
#   2. hot-path discipline lint (tools/pprox_lint --hotpath) over the whole
#      src/ tree, gated against tools/hotpath_baseline.json (DESIGN.md §11),
#      then lock discipline (--locks, §12), constant-time discipline
#      (--ct, §13), and lifetime/escape discipline (--lifetime, §14) over
#      src/ against their committed baselines
#   3. negative-compile suite (tests/compile_fail/): taint-domain violations
#      must fail to compile
#   4. lint golden fixtures (tests/lint_fixtures/): analyzer behaviour pins
#   5. ASan + UBSan build, full ctest suite (leaks, overflows, UB)
#   6. lifetime selftest: -DPPROX_CHECK_SELFTEST dangling-view variant must
#      be caught by BOTH pprox_lint --lifetime and ASan (WILL_FAIL pair)
#   7. TSan build, concurrency-heavy tests (races in queue/pool/shuffler)
#   8. clang-tidy (bugprone-*, concurrency-*, performance-*) when installed
#
# Usage:
#   scripts/check.sh           # full gate (several minutes)
#   scripts/check.sh --quick   # lint + compile-fail + fixtures + ASan smoke
#   scripts/check.sh --model   # pprox_check interleaving exploration only:
#                              # normal build (models must pass) + selftest
#                              # build on pre-fix variants (models must fail)
#   scripts/check.sh --bench   # regression gate: run bench_crypto /
#                              # bench_pipeline, compare against the
#                              # committed BENCH_*.json via bench_report.py
#                              # --compare; fails on > PPROX_BENCH_THRESHOLD
#                              # (default 0.15 = 15%) cpu-time regression
#   scripts/check.sh --bench-update
#                              # rewrite BENCH_crypto.json / BENCH_pipeline.
#                              # json at the repo root from a fresh run
#   scripts/check.sh --tidy    # clang-tidy only (needs LLVM installed)
#
# Every stage is wall-clocked; a summary table prints at the end with a
# per-stage status column (ok / warn / FAIL), and a failure reports the
# stage it died in (fail-fast via ERR trap). Lint stages that exit 2
# (operational warning) or report stale baseline entries finish as `warn`
# instead of folding into success — the gate still passes, but the state
# is visible.
#
# Sanitizer and model-check stages run with PPROX_DISABLE_ACCEL=1: the
# portable reference path is the one whose every byte ASan/UBSan/TSan can
# instrument (intrinsics hide loads from the shadow), and tests that matter
# for the accelerated kernels pin Backend::kAccelerated explicitly
# (test_accel), which overrides the env var by design.
#
# Build trees land in build-asan/, build-tsan/, build-bench/, build-model/,
# build-model-selftest/ and build-lifetime-selftest/ next to build/ and are
# reused across runs (incremental). Exit status is nonzero on any failure.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-full}"
BENCH_THRESHOLD="${PPROX_BENCH_THRESHOLD:-0.15}"

# Abort on the first sanitizer report instead of limping on; TSan history
# sized for the deep happens-before graphs of the pipeline tests.
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:abort_on_error=0"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:history_size=7"

# Sanitized/model runs exercise the portable crypto reference; accelerated
# kernels are covered by test_accel's explicit backend pinning (see header).
case "$MODE" in --bench|--bench-update) ;; *) export PPROX_DISABLE_ACCEL=1 ;; esac

# --- stage bookkeeping ------------------------------------------------------
STAGE_NAMES=()
STAGE_TIMES=()
STAGE_STATUS=()
CURRENT_STAGE=""
CURRENT_STATUS="ok"
STAGE_T0=0

finish_stage() {
  if [[ -n "$CURRENT_STAGE" ]]; then
    STAGE_NAMES+=("$CURRENT_STAGE")
    STAGE_TIMES+=("$(($(date +%s) - STAGE_T0))")
    STAGE_STATUS+=("$CURRENT_STATUS")
    CURRENT_STAGE=""
    CURRENT_STATUS="ok"
  fi
}

step() {
  finish_stage
  CURRENT_STAGE="$*"
  STAGE_T0="$(date +%s)"
  printf '\n\033[1m== %s ==\033[0m\n' "$*"
}

summary() {
  finish_stage
  printf '\n\033[1m%-55s %8s  %s\033[0m\n' "stage" "seconds" "status"
  local i total=0
  for i in "${!STAGE_NAMES[@]}"; do
    printf '%-55s %8s  %s\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}" \
      "${STAGE_STATUS[$i]}"
    total=$((total + STAGE_TIMES[i]))
  done
  printf '%-55s %8s\n' "total" "$total"
}

on_error() {
  CURRENT_STATUS="FAIL"
  printf '\n\033[1;31mFAILED in stage: %s\033[0m\n' \
    "${CURRENT_STAGE:-<setup>}" >&2
  summary >&2 || true
}
trap on_error ERR

# Runs one pprox_lint invocation, mapping its exit-code convention onto the
# stage status: 0 is ok (downgraded to `warn` if stale baseline entries were
# reported), 2 (operational warning: unreadable input, missing baseline) is
# `warn` and does NOT abort the gate, and 1 (findings/regressions) fails the
# stage via the ERR trap as before.
run_lint() {
  local rc=0 out
  out="$("$@" 2>&1)" || rc=$?
  printf '%s\n' "$out"
  case "$rc" in
    0) if grep -q 'note: baseline entry no longer fires' <<<"$out"; then
         CURRENT_STATUS="warn"
       fi ;;
    2) printf '\033[1;33mwarn: %s exited 2 (operational warning)\033[0m\n' \
         "$1" >&2
       CURRENT_STATUS="warn" ;;
    *) return "$rc" ;;
  esac
  return 0
}

configure_and_build() {
  local dir="$1" sanitize="$2"
  shift 2
  cmake -B "$ROOT/$dir" -S "$ROOT" -DPPROX_SANITIZE="$sanitize" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$ROOT/$dir" -j "$JOBS" "$@"
}

run_tidy() {
  if command -v clang-tidy >/dev/null 2>&1; then
    step "clang-tidy (bugprone-*, concurrency-*, performance-*)"
    cmake -B "$ROOT/build-tidy" -S "$ROOT" \
          -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # Sources only; headers are covered via HeaderFilterRegex in .clang-tidy.
    find "$ROOT/src" "$ROOT/tools" -name '*.cpp' -print0 |
      xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$ROOT/build-tidy" --quiet
  else
    step "clang-tidy not installed — skipped (install LLVM to enable)"
  fi
}

run_bench() {
  # A Release tree so the numbers reflect the shipped optimization level,
  # not RelWithDebInfo sanitizer scaffolding. Each binary runs both backend
  # variants in one process (BENCHMARK_CAPTURE pins Backend::kPortable /
  # kAccelerated), so the speedup column compares like with like.
  local update="$1"
  step "bench: build + run crypto and pipeline benchmarks"
  cmake -B "$ROOT/build-bench" -S "$ROOT" \
        -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$ROOT/build-bench" -j "$JOBS" \
        --target bench_crypto bench_pipeline
  local name
  for name in crypto pipeline; do
    "$ROOT/build-bench/bench/bench_$name" \
        --benchmark_format=json --benchmark_out_format=json \
        --benchmark_out="$ROOT/build-bench/bench_${name}_raw.json" >/dev/null
    python3 "$ROOT/scripts/bench_report.py" \
        "$ROOT/build-bench/bench_${name}_raw.json" \
        "$ROOT/build-bench/BENCH_${name}.json"
  done

  if [[ "$update" == 1 ]]; then
    step "bench baseline update: BENCH_crypto.json, BENCH_pipeline.json"
    cp "$ROOT/build-bench/BENCH_crypto.json" "$ROOT/BENCH_crypto.json"
    cp "$ROOT/build-bench/BENCH_pipeline.json" "$ROOT/BENCH_pipeline.json"
  else
    step "bench regression gate (threshold ${BENCH_THRESHOLD})"
    for name in crypto pipeline; do
      echo "BENCH_${name}.json vs fresh run:"
      python3 "$ROOT/scripts/bench_report.py" --compare \
          "$ROOT/BENCH_${name}.json" "$ROOT/build-bench/BENCH_${name}.json" \
          --threshold "$BENCH_THRESHOLD"
    done
  fi
}

if [[ "$MODE" == "--tidy" ]]; then
  run_tidy
  step "tidy gate PASSED"
  summary
  exit 0
fi

if [[ "$MODE" == "--bench" || "$MODE" == "--bench-update" ]]; then
  run_bench "$([[ "$MODE" == "--bench-update" ]] && echo 1 || echo 0)"
  step "bench gate PASSED"
  summary
  exit 0
fi

if [[ "$MODE" == "--model" ]]; then
  # Deterministic interleaving exploration (DESIGN.md §9). Two builds:
  #
  #   build-model           sync.hpp routes through the det scheduler; the
  #                         five pprox_check models (shuffle, mpmc, pool,
  #                         rotation, lockorder) run bounded-exhaustive DFS
  #                         and fixed-seed PCT and must all PASS.
  #   build-model-selftest  -DPPROX_CHECK_SELFTEST runs every model on its
  #                         pre-fix subject (pprox_check's own variants;
  #                         the libraries are unchanged). Every model test
  #                         is WILL_FAIL: ctest passes only if pprox_check
  #                         still FINDS every seeded bug. A green selftest
  #                         proves the checker, not the code.
  step "model: exhaustive + PCT exploration (bugs must be absent)"
  cmake -B "$ROOT/build-model" -S "$ROOT" -DPPROX_MODEL_CHECK=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$ROOT/build-model" -j "$JOBS" --target pprox_check
  ctest --test-dir "$ROOT/build-model" -R '^model_' \
        --output-on-failure -j "$JOBS"

  step "model selftest: pre-fix variants (bugs must be FOUND)"
  cmake -B "$ROOT/build-model-selftest" -S "$ROOT" -DPPROX_MODEL_CHECK=ON \
        -DPPROX_CHECK_SELFTEST=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$ROOT/build-model-selftest" -j "$JOBS" --target pprox_check
  ctest --test-dir "$ROOT/build-model-selftest" -R '^model_' \
        --output-on-failure -j "$JOBS"

  step "model gate PASSED"
  summary
  exit 0
fi

LINT_SCOPE=("$ROOT/src/common" "$ROOT/src/crypto" "$ROOT/src/pprox"
            "$ROOT/src/lrs" "$ROOT/src/attack" "$ROOT/tools")

step "crypto-hygiene + information-flow lint (pprox_lint --flow)"
configure_and_build build-asan "address;undefined" --target pprox_lint
run_lint "$ROOT/build-asan/tools/pprox_lint" --flow "${LINT_SCOPE[@]}"
run_lint "$ROOT/build-asan/tools/pprox_lint" --flow \
    --baseline "$ROOT/tools/lint_baseline.json" "${LINT_SCOPE[@]}"
# raw-sync (and crypto rules) over the whole production tree: no raw std
# sync primitive outside common/sync.hpp, or pprox_check cannot see it.
run_lint "$ROOT/build-asan/tools/pprox_lint" "$ROOT/src"

step "hot-path discipline lint (pprox_lint --hotpath, DESIGN.md §11)"
run_lint "$ROOT/build-asan/tools/pprox_lint" --hotpath \
    --baseline "$ROOT/tools/hotpath_baseline.json" "$ROOT/src"

step "lock-discipline lint (pprox_lint --locks, DESIGN.md §12)"
run_lint "$ROOT/build-asan/tools/pprox_lint" --locks \
    --baseline "$ROOT/tools/locks_baseline.json" "$ROOT/src"

step "constant-time discipline lint (pprox_lint --ct, DESIGN.md §13)"
run_lint "$ROOT/build-asan/tools/pprox_lint" --ct \
    --baseline "$ROOT/tools/ct_baseline.json" "$ROOT/src"

step "lifetime/escape discipline lint (pprox_lint --lifetime, DESIGN.md §14)"
run_lint "$ROOT/build-asan/tools/pprox_lint" --lifetime \
    --baseline "$ROOT/tools/lifetime_baseline.json" "$ROOT/src"

step "negative-compile suite (taint-domain violations must not build)"
# Most cases drive the compiler directly (-fsyntax-only), but the
# detthread_double_join pair is a negative-RUN case and needs its binaries.
configure_and_build build-asan "address;undefined" \
    --target cf_detthread_double_join_control cf_detthread_double_join_violation
ctest --test-dir "$ROOT/build-asan" -R '^compile_fail_' \
      --output-on-failure -j "$JOBS"

step "lint golden fixtures (hotpath + locks + ct + lifetime + flow pins)"
ctest --test-dir "$ROOT/build-asan" -R '^lint_fixture_' \
      --output-on-failure -j "$JOBS"

if [[ "$MODE" == "--quick" ]]; then
  # test_batch is the batched-vs-sequential ecall differential (DESIGN.md
  # §15): under ASan it also proves the arena recycling/wipe discipline.
  step "ASan/UBSan smoke: test_concurrent + test_pipeline + test_batch"
  configure_and_build build-asan "address;undefined" \
      --target test_concurrent test_pipeline test_batch
  ctest --test-dir "$ROOT/build-asan" -R 'test_(concurrent|pipeline|batch)$' \
        --output-on-failure -j "$JOBS"
  step "quick gate PASSED"
  summary
  exit 0
fi

step "ASan/UBSan: full test suite"
configure_and_build build-asan "address;undefined"
ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS"

# Lifetime selftest cross-validation (DESIGN.md §14.6): compile the known
# dangling-view variant back in (-DPPROX_CHECK_SELFTEST) under ASan, and
# require BOTH detectors to fire — lifetime_selftest_static (pprox_lint
# --lifetime, WILL_FAIL) and lifetime_selftest_dynamic (heap-use-after-free,
# WILL_FAIL). A pass here proves the analyzer and the sanitizer still pin
# each other. Only the two standalone binaries are built.
step "lifetime selftest: dangling view must be caught by lint AND ASan"
cmake -B "$ROOT/build-lifetime-selftest" -S "$ROOT" \
      -DPPROX_CHECK_SELFTEST=ON -DPPROX_SANITIZE=address \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$ROOT/build-lifetime-selftest" -j "$JOBS" \
      --target pprox_lifetime_selftest pprox_lint
ctest --test-dir "$ROOT/build-lifetime-selftest" -R '^lifetime_selftest' \
      --output-on-failure -j "$JOBS"

step "TSan: concurrency-heavy tests"
configure_and_build build-tsan "thread" \
    --target test_concurrent test_pipeline test_sanitizer_stress \
             test_shuffle test_scheduler test_tenancy
ctest --test-dir "$ROOT/build-tsan" \
      -R 'concurrent|pipeline|sanitizer_stress|shuffle|scheduler|tenancy' \
      --output-on-failure -j "$JOBS"

run_tidy

step "full gate PASSED"
summary

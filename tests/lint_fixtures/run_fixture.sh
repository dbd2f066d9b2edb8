#!/usr/bin/env bash
# Golden-file runner for the pprox_lint fixture suite.
#
#   run_fixture.sh LINT_BIN MODE FIXTURE.cpp EXPECTED
#
# MODE is any pass flag pprox_lint understands (`hotpath`, `locks`, `ct`,
# `lifetime`, `flow`). The fixture is linted on its own; findings are
# normalized to their sorted baseline keys (--MODE --json) and diffed
# against EXPECTED. The lint exit code must also agree with the golden: a
# non-empty EXPECTED demands exit 1, an empty one exit 0 — so a fixture
# that stops firing OR an analyzer that stops failing both break the test.
set -u

if [[ $# -ne 4 ]]; then
  echo "usage: $0 LINT_BIN MODE FIXTURE EXPECTED" >&2
  exit 2
fi
lint="$1" mode="$2" fixture="$3" expected="$4"

cd "$(dirname "$fixture")" || exit 2
name="$(basename "$fixture")"

raw="$("$lint" "--$mode" --json "$name" 2>/dev/null)"
rc=$?
got="$(printf '%s' "$raw" | grep -o '"key": "[^"]*"' |
       sed 's/^"key": "//; s/"$//' | sort)"

want_rc=0
[[ -s "$expected" ]] && want_rc=1
if [[ "$rc" -ne "$want_rc" ]]; then
  echo "FAIL $name: lint exit $rc, expected $want_rc" >&2
  printf '%s\n' "$raw" >&2
  exit 1
fi

if ! diff -u "$expected" <(printf '%s' "$got"; [[ -n "$got" ]] && echo); then
  echo "FAIL $name: findings differ from golden $expected" >&2
  exit 1
fi
echo "PASS $name"

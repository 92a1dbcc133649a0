#!/usr/bin/env bash
# usage: nontest-lines.sh [repo root]
# Non-test lines of every `crates/*/src` Rust file: the lines before its first
# `#[cfg(test)]` (all of them when it has none), one file a line, then the
# total. A file compiled only as a `#[cfg(test)] #[path = "…"]` module is test
# code and counts 0. Line counts in CHANGES.md and ROADMAP.md come from this
# command.
set -euo pipefail
cd "${1:-.}"
files=$(find crates/*/src -name '*.rs' | LC_ALL=C sort)
# Each `#[path = "…"]` right under a `#[cfg(test)]`, resolved against the
# directory of the file that declares it.
test_only=$(for f in $files; do
  awk -v dir="$(dirname "$f")" '
    armed && match($0, /#\[path = "[^"]+"\]/) { print dir "/" substr($0, RSTART + 10, RLENGTH - 12) }
    { armed = $0 ~ /^[[:space:]]*#\[cfg\(test\)\]/ }' "$f"
done)
for f in $files; do
  if grep -qxF "$f" <<<"$test_only"; then
    printf '%6d %s (test only)\n' 0 "$f"
    continue
  fi
  n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
  printf '%6d %s\n' "$n" "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'

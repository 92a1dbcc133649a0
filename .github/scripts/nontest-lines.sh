#!/usr/bin/env bash
# usage: nontest-lines.sh [repo root]
# Non-test lines of every `crates/*/src` Rust file: the lines before its first
# `#[cfg(test)]` (all of them when it has none), one file a line, then the
# total. Line counts in CHANGES.md and ROADMAP.md come from this command.
set -euo pipefail
cd "${1:-.}"
find crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
  n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
  printf '%6d %s\n' "$n" "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'

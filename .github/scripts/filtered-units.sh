#!/usr/bin/env bash
# usage: filtered-units.sh <package> <filter>...
# Run a package's unit tests under module-path filters. A filter that matches
# nothing passes silently under `cargo test`, so first check that each one
# still selects at least one test.
set -euo pipefail
pkg=$1
shift
for filter in "$@"; do
  n=$(cargo test -q -p "$pkg" -- --list "$filter" | grep -c ': test$' || true)
  echo "$pkg -- $filter selects $n test(s)"
  [ "$n" -ge 1 ]
done
cargo test -q -p "$pkg" -- "$@"

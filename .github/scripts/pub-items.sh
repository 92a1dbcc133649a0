#!/usr/bin/env bash
# usage: pub-items.sh [repo root]
# Visibility of every library crate's items: per crate, the number of `pub`
# and of `pub(crate)` / `pub(super)` item declarations (`fn`, `struct`,
# `enum`, `trait`, `type`, `const`, `static`, `mod` and `use`; fields are not
# counted) in the lines of its `src` files before their first `#[cfg(test)]`,
# then the totals. `crates/bench` is the experiment harness, not a library,
# and is left out. The `pub` counts in CHANGES.md and ROADMAP.md come from
# this command.
set -euo pipefail
cd "${1:-.}"
item='[[:space:]]+(fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]'
printf '%6s %6s %s\n' pub narrow crate
for dir in crates/*/; do
  crate=$(basename "$dir")
  [ "$crate" = bench ] && continue
  find "$dir/src" -name '*.rs' | LC_ALL=C sort | while read -r f; do
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$f"
  done | awk -v crate="$crate" -v item="$item" '
    $0 ~ "^[[:space:]]*pub\\((crate|super)\\)" item { narrow++; next }
    $0 ~ "^[[:space:]]*pub" item { pub++ }
    END { printf "%6d %6d %s\n", pub, narrow, crate }'
done | awk '{ print; pub += $1; narrow += $2 } END { printf "%6d %6d total\n", pub, narrow }'

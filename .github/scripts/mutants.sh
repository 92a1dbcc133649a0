#!/usr/bin/env bash
# usage: mutants.sh [tests/mutants/NNN-name.patch ...]   (default: every patch)
# Re-run the mutant catalogue in tests/mutants/README.md. One throwaway
# `git worktree` of HEAD is reset to HEAD before each patch, which is applied
# there and runs the test filter the catalogue names for it, in its profile.
# Reusing the worktree keeps the mtimes of the files no patch touched, so
# cargo rebuilds only the crates the previous and the current patch touched
# and their dependents. Fails if a patch does not apply, a mutant does not
# build, or a filter passes.
set -uo pipefail
root=$(git rev-parse --show-toplevel)
cd "$root"
catalogue=tests/mutants/README.md
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/mutants}
if [ $# -eq 0 ]; then set -- tests/mutants/*.patch; fi

wt=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
git worktree add -q --detach "$wt" HEAD
trap 'git worktree remove --force "$wt"' EXIT

failed=0
for patch in "$@"; do
  name=$(basename "$patch" .patch)
  row=$(grep -F "| \`$name\` |" "$catalogue")
  if [ -z "$row" ]; then
    echo "$name: no row in $catalogue"; failed=1; continue
  fi
  filter=$(echo "$row" | awk -F'|' '{gsub(/`|^ +| +$/, "", $4); print $4}')
  profile=$(echo "$row" | awk -F'|' '{gsub(/[ `]/, "", $5); print $5}')
  flag=""; [ "$profile" = release ] && flag=--release
  git -C "$wt" reset -q --hard HEAD
  git -C "$wt" clean -fdq
  if ! git -C "$wt" apply "$root/$patch"; then
    verdict="FAIL (does not apply)"; failed=1
  elif ! (cd "$wt" && cargo test -q $flag --no-run $filter >/dev/null 2>&1); then
    verdict="FAIL (does not build)"; failed=1
  elif (cd "$wt" && cargo test -q $flag $filter >/dev/null 2>&1); then
    verdict="FAIL (survives: $filter passes)"; failed=1
  else
    verdict="killed by $filter ($profile)"
  fi
  echo "$name: $verdict"
done
exit $failed

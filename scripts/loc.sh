#!/usr/bin/env bash
# Non-test source size per crate — the count the simplicity PRs cite.
# For each crates/<c>/src/*.rs: the lines above the file's first
# top-level `#[cfg(test)]`, minus blank lines and lines starting with `//`.
# Prints one row per crate (argument order, default: every crate) and a
# total, then two rows the total leaves out, counted by the same rule:
# the offline dependency shims (crates/shims/*/src/*.rs) and the
# benchmark harness (kronbench/src/**/*.rs).
#
#   scripts/loc.sh [--base REV] [crate…]
#
# With `--base REV` each row reads `base → now (±delta)`, the base
# counted by the same rule from the files of commit REV (`git ls-tree`,
# `git show REV:path`); a crate REV does not have counts 0 there.
set -euo pipefail
cd "$(dirname "$0")/.."

base=
if [ "${1:-}" = --base ]; then
    [ $# -ge 2 ] || { echo "loc.sh: --base needs a revision" >&2; exit 1; }
    base=$2
    shift 2
    git rev-parse --quiet --verify "$base^{commit}" > /dev/null \
        || { echo "loc.sh: no commit named $base" >&2; exit 1; }
fi

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
    for d in crates/*/src; do
        c=${d#crates/}
        crates+=("${c%/src}")
    done
fi
# A misspelt name would count as 0 lines; refuse it before any output.
for c in "${crates[@]}"; do
    [ -d "crates/$c/src" ] || { echo "loc.sh: no crate named $c (no crates/$c/src)" >&2; exit 1; }
done

# The files under directory $1 whose paths match the extended regex $2:
# in the working tree, or at commit $at when it is set.
files() {
    if [ -n "$at" ]; then
        git ls-tree -r --name-only "$at" -- "$1"
    else
        find "$1" -type f 2> /dev/null
    fi | grep -E "$2" || true
}

# One file's text: from the working tree, or from commit $at.
text() {
    if [ -n "$at" ]; then git show "$at:$1"; else cat "$1"; fi
}

# Sum of the per-file counts of the files under $1 matching $2.
count() {
    local n=0 f
    for f in $(files "$1" "$2"); do
        n=$((n + $(text "$f" | awk '/^#\[cfg\(test\)\]/ { exit }
                                    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
                                    { n++ } END { print n + 0 }')))
    done
    echo "$n"
}

# row NAME DIR REGEX: print NAME's count (and its base's, with --base);
# leaves them in $now and $was.
row() {
    at= now=$(count "$2" "$3")
    if [ -n "$base" ]; then
        at=$base was=$(count "$2" "$3")
        printf '%-10s %6d → %6d (%+d)\n' "$1" "$was" "$now" $((now - was))
    else
        printf '%-10s %6d\n' "$1" "$now"
    fi
}

total_now=0 total_was=0 was=0
for c in "${crates[@]}"; do
    row "$c" "crates/$c/src" "^crates/$c/src/[^/]+\.rs$"
    total_now=$((total_now + now)) total_was=$((total_was + was))
done
if [ -n "$base" ]; then
    printf '%-10s %6d → %6d (%+d)\n' total "$total_was" "$total_now" $((total_now - total_was))
else
    printf '%-10s %6d\n' total "$total_now"
fi
row shims crates/shims '^crates/shims/[^/]+/src/[^/]+\.rs$'
row kronbench kronbench/src '\.rs$'

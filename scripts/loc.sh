#!/usr/bin/env bash
# Non-test source size per crate — the count the simplicity PRs cite.
# For each crates/<c>/src/*.rs: the lines above the file's first
# top-level `#[cfg(test)]`, minus blank lines and lines starting with `//`.
# Prints one row per crate (argument order, default: every crate) and a total.
set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
    for d in crates/*/src; do
        c=${d#crates/}
        crates+=("${c%/src}")
    done
fi

total=0
for c in "${crates[@]}"; do
    n=0
    for f in crates/"$c"/src/*.rs; do
        [ -e "$f" ] || continue
        n=$((n + $(awk '/^#\[cfg\(test\)\]/ { exit }
                        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
                        { n++ } END { print n + 0 }' "$f")))
    done
    printf '%-10s %6d\n' "$c" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"

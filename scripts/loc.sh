#!/usr/bin/env bash
# Non-test source size per crate — the count the simplicity PRs cite.
# For each crates/<c>/src/*.rs: the lines above the file's first
# top-level `#[cfg(test)]`, minus blank lines and lines starting with `//`.
# Prints one row per crate (argument order, default: every crate) and a
# total, then two rows the total leaves out, counted by the same rule:
# the offline dependency shims (crates/shims/*/src/*.rs) and the
# benchmark harness (kronbench/src/**/*.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

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

# Sum of the per-file counts of the files named.
count() {
    local n=0 f
    for f in "$@"; do
        [ -e "$f" ] || continue
        n=$((n + $(awk '/^#\[cfg\(test\)\]/ { exit }
                        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
                        { n++ } END { print n + 0 }' "$f")))
    done
    echo "$n"
}

total=0
for c in "${crates[@]}"; do
    n=$(count crates/"$c"/src/*.rs)
    printf '%-10s %6d\n' "$c" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
printf '%-10s %6d\n' shims "$(count crates/shims/*/src/*.rs)"
printf '%-10s %6d\n' kronbench "$(count $(find kronbench/src -name '*.rs' | sort))"

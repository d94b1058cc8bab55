#!/usr/bin/env bash
# End-to-end smoke of the whole-graph analytics surfaces: run every
# `kron analyze` kernel over a small CSR run directory (validation on),
# check the result documents are deterministic across thread counts and
# byte-identical to the server's async job API, exercise the job
# lifecycle (submit, poll, 429 at the pool cap, cooperative cancel),
# prove a tampered artifact fails the recount nonzero, then assert a
# clean graceful shutdown. Run from the repo root; CI calls it after
# the release build.
set -euo pipefail

BIN=${KRON_BIN:-target/release/kron}
work=$(mktemp -d)
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null; rm -rf "$work"' EXIT

echo "== generate a run directory"
"$BIN" gen holme-kim --n 40 --m 2 --seed 7 --out "$work/a.tsv"
"$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/run" --shards 4 --format csr
"$BIN" verify-shards "$work/run"

echo "== all four kernels, validation on"
"$BIN" analyze "$work/run" --kernel bfs --source 3 > "$work/bfs.json"
grep -q '"kernel":"bfs"' "$work/bfs.json"
grep -q '"unreached":0' "$work/bfs.json"   # holme-kim products are connected
"$BIN" analyze "$work/run" --kernel cc > "$work/cc.json"
grep -q '"components":1' "$work/cc.json"
"$BIN" analyze "$work/run" --kernel pagerank --top 3 > "$work/pr.json"
grep -q '"kernel":"pagerank"' "$work/pr.json"
grep -q '"top":\[' "$work/pr.json"
"$BIN" analyze "$work/run" --kernel tri-census > "$work/census.json"
grep -q '"ok":true' "$work/census.json"    # recount matches the closed forms
# ... at every vertex and every edge: the element-wise checks compared
# `vertices` counts and (entries - loops)/2 edges (holme-kim is loop-free)
field() { grep -o "$1" "$work/census.json" | grep -o '[0-9]*$'; }
vertices=$(field '"vertices":[0-9]*')
entries=$(field '"entries":[0-9]*')
[ "$(field '"vertex_triangles":{"ok":true,"checked":[0-9]*')" = "$vertices" ]
[ "$(field '"edge_triangles":{"ok":true,"checked":[0-9]*')" = $((entries / 2)) ]

echo "== results are deterministic across thread counts"
for args in "bfs --source 3" "cc" "pagerank --top 3" "tri-census"; do
    kernel=${args%% *}   # $args stays unquoted below: kernel plus options
    "$BIN" analyze "$work/run" --kernel $args --threads 1 > "$work/$kernel.t1.json"
    "$BIN" analyze "$work/run" --kernel $args --threads 4 > "$work/$kernel.t4.json"
    cmp "$work/$kernel.t1.json" "$work/$kernel.t4.json"
done
cmp "$work/bfs.t1.json" "$work/bfs.json"
cmp "$work/cc.t1.json" "$work/cc.json"
cmp "$work/pagerank.t1.json" "$work/pr.json"
cmp "$work/tri-census.t1.json" "$work/census.json"

echo "== a tampered artifact fails the recount nonzero"
cp -r "$work/run" "$work/bad"
# flip the low bit of one mid-file column word per shard: structurally
# valid, in range, wrong adjacency — exactly what checksums would
# catch, except `kron analyze` opens structurally (the recount IS the
# integrity check)
for shard in "$work/bad"/shard_*.csr; do
    num_rows=$(od -An -tu8 -j 16 -N 8 "$shard" | tr -d ' ')
    nnz=$(od -An -tu8 -j 24 -N 8 "$shard" | tr -d ' ')
    off=$((32 + 8 * (num_rows + 1) + 8 * (nnz / 2)))   # §"CSR shard" layout
    old=$(od -An -tu1 -j "$off" -N 1 "$shard" | tr -d ' ')
    printf "$(printf '\\%03o' $((old ^ 1)))" \
        | dd of="$shard" bs=1 seek="$off" conv=notrunc 2>/dev/null
done
status=0
"$BIN" analyze "$work/bad" --kernel tri-census > "$work/bad.json" 2> "$work/bad.err" || status=$?
[ "$status" -ne 0 ] || { echo "tampered artifact validated cleanly"; exit 1; }
grep -q '"ok":false' "$work/bad.json"      # the mismatch report still prints
# ... and names a culprit: an entry, an edge or a vertex under "first"
grep -Eq '"first":\[(\[[0-9]+,[0-9]+\]|\{"(edge|vertex)":)' "$work/bad.json"
grep -q 'closed forms' "$work/bad.err"

echo "== start the server (ephemeral port, job pool of 1)"
"$BIN" serve "$work/run" --listen 127.0.0.1:0 --jobs 1 \
    > "$work/stdout.txt" 2> "$work/stderr.txt" &
server_pid=$!
for _ in $(seq 100); do
    grep -q '^listening on ' "$work/stdout.txt" 2>/dev/null && break
    sleep 0.1
done
addr=$(sed -n 's|^listening on http://||p' "$work/stdout.txt" | head -1)
[ -n "$addr" ] || { echo "server never printed its address"; exit 1; }
echo "   bound at $addr"

poll_until_settled() {
    local id=$1 body
    for _ in $(seq 200); do
        body=$(curl -fsS "http://$addr/jobs/$id")
        case "$body" in *'"state":"running"'*) sleep 0.05 ;; *) printf '%s' "$body"; return 0 ;; esac
    done
    echo "job $id never settled" >&2
    return 1
}

echo "== a server job returns the CLI's exact bytes"
accepted=$(curl -fsS -d '{"kernel":"cc"}' "http://$addr/jobs")
echo "   $accepted"
id=$(printf '%s' "$accepted" | sed -n 's/^{"id":\([0-9]*\).*/\1/p')
[ -n "$id" ] || { echo "submission returned no id"; exit 1; }
body=$(poll_until_settled "$id")
expected=$(printf '{"id":%s,"kernel":"cc","state":"done","result":%s}' "$id" "$(cat "$work/cc.json")")
[ "$body" = "$expected" ] || {
    printf 'job result diverged from the CLI:\n  job: %s\n  cli: %s\n' "$body" "$expected"
    exit 1
}

echo "== pool cap (429), cooperative cancel"
# an effectively endless kernel: tol -1 is unreachable, so PageRank
# grinds until its (astronomical) iteration cap or a cancel
endless='{"kernel":"pagerank","tol":-1,"iters":1000000000000}'
accepted=$(curl -fsS -d "$endless" "http://$addr/jobs")
id=$(printf '%s' "$accepted" | sed -n 's/^{"id":\([0-9]*\).*/\1/p')
code=$(curl -s -o "$work/429.json" -w '%{http_code}' -d "$endless" "http://$addr/jobs")
[ "$code" = 429 ] || { echo "pool cap returned $code, not 429"; exit 1; }
grep -q '"error":"job pool is full"' "$work/429.json"
curl -fsS -X DELETE "http://$addr/jobs/$id" | grep -q '"cancel_requested":true'
poll_until_settled "$id" | grep -q '"error":"cancelled"'
stats=$(curl -fsS "http://$addr/stats")
echo "$stats" | grep -q '"jobs":{"cap":1,"submitted":2'
echo "$stats" | grep -q '"rejected":1'
echo "$stats" | grep -q '"validation_failures":0'

echo "== graceful shutdown (SIGTERM → exit 0: cancels never fail the run)"
kill -TERM "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=""
[ "$status" -eq 0 ] || { echo "server exited $status on a clean run"; exit 1; }
grep -q '2 jobs (0 failed, 1 cancelled, 0 validation failures)' "$work/stderr.txt"
echo "analyze smoke OK (exit $status)"

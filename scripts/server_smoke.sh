#!/usr/bin/env bash
# End-to-end smoke of `kron serve --listen`: generate a small CSR run
# directory, start the server with every answer cross-checked, exercise
# every endpoint with a scripted client, then assert a clean graceful
# shutdown (exit 0 — meaning no checked answer disagreed with the
# closed-form oracle). A second stress leg drives ~2K concurrent keep-alive
# connections through the event loop with `stress_serve` (built by
# `cargo build --release -p kron-bench --bin stress_serve`; the leg is
# skipped with a warning when the binary is missing), asserts zero
# request errors and a sane p99 under `--source cross-check`, and
# ends with a clean SIGTERM drain. Run from the repo root; CI calls it
# after the release build.
set -euo pipefail

BIN=${KRON_BIN:-target/release/kron}
STRESS_BIN=${STRESS_BIN:-target/release/stress_serve}
# The stress leg holds every client socket at once; raise the fd limit
# when allowed, then size the leg to what we actually got.
ulimit -n 65536 2>/dev/null || true
STRESS_CONNS=${STRESS_CONNS:-2000}
fd_budget=$(( $(ulimit -n) / 4 ))
if [ "$STRESS_CONNS" -gt "$fd_budget" ]; then
    STRESS_CONNS=$fd_budget
    echo "fd limit $(ulimit -n): stress leg scaled down to $STRESS_CONNS connections"
fi
work=$(mktemp -d)
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null; rm -rf "$work"' EXIT

echo "== generate a run directory"
"$BIN" gen holme-kim --n 40 --m 2 --seed 7 --out "$work/a.tsv"
"$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/run" --shards 4 --format csr
"$BIN" verify-shards "$work/run"

echo "== start the server (ephemeral port, every answer cross-checked)"
"$BIN" serve "$work/run" --listen 127.0.0.1:0 --source cross-check \
    > "$work/stdout.txt" 2> "$work/stderr.txt" &
server_pid=$!
for _ in $(seq 100); do
    grep -q '^listening on ' "$work/stdout.txt" 2>/dev/null && break
    sleep 0.1
done
addr=$(sed -n 's|^listening on http://||p' "$work/stdout.txt" | head -1)
[ -n "$addr" ] || { echo "server never printed its address"; exit 1; }
echo "   bound at $addr"

echo "== healthz / query / batch / stats"
[ "$(curl -fsS "http://$addr/healthz")" = "ok" ]
degree=$(curl -fsS "http://$addr/query?q=degree%2057")
echo "   degree 57 = $degree"
[ "$degree" -ge 0 ] 2>/dev/null
printf 'degree 57\ntri_vertex 57\ntri_edge 57 58\nneighbors 3\n' \
    | curl -fsS --data-binary @- "http://$addr/batch" | tee "$work/batch.txt"
[ "$(wc -l < "$work/batch.txt")" -eq 4 ]
grep -q '^degree 57 = ' "$work/batch.txt"
stats=$(curl -fsS "http://$addr/stats")
echo "$stats" | grep -q '"mismatch_count":0'
echo "$stats" | grep -q '"source":"cross-check"'
# every answer is checked: the one /query and the four /batch lines
first() { echo "$stats" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2; }
queries=$(first queries); checked=$(first sampled_checks)
[ "$queries" -eq 5 ] && [ "$checked" -eq "$queries" ] \
    || { echo "sampled_checks $checked != queries $queries: $stats"; exit 1; }
# malformed queries are 400s, not crashes
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/query?q=frobnicate")
[ "$code" = 400 ]
# out-of-range vertices are 422s
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/query?q=degree%2099999999")
[ "$code" = 422 ]
# which path each request took: the /healthz probe and the two degree
# probes above are bounded, so the event thread answered them itself
# (the 400 too); /batch and /stats went to the pool; nothing took both
stats=$(curl -fsS "http://$addr/stats")
field() { echo "$stats" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"; }
inline=$(field inline); pooled=$(field pooled); requests=$(field requests)
echo "   $requests requests: $inline inline, $pooled pooled"
[ "$inline" -ge 3 ] || { echo "only $inline requests answered inline"; exit 1; }
[ $(( inline + pooled )) -eq "$requests" ] \
    || { echo "inline + pooled != requests ($inline + $pooled vs $requests)"; exit 1; }

echo "== graceful shutdown (SIGTERM → exit 0 on a clean cross-check record)"
kill -TERM "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=""
[ "$status" -eq 0 ] || { echo "server exited $status on a clean run"; exit 1; }
grep -q 'cross-check: 0 mismatches' "$work/stderr.txt"
echo "server smoke OK (exit $status)"

if [ ! -x "$STRESS_BIN" ]; then
    echo "== stress leg SKIPPED ($STRESS_BIN not built; cargo build --release -p kron-bench --bin stress_serve)"
    exit 0
fi

echo "== stress leg: $STRESS_CONNS keep-alive connections, every answer cross-checked"
"$BIN" serve "$work/run" --listen 127.0.0.1:0 --source cross-check \
    --max-conns $(( STRESS_CONNS + 64 )) \
    > "$work/stress_stdout.txt" 2> "$work/stress_stderr.txt" &
server_pid=$!
for _ in $(seq 100); do
    grep -q '^listening on ' "$work/stress_stdout.txt" 2>/dev/null && break
    sleep 0.1
done
addr=$(sed -n 's|^listening on http://||p' "$work/stress_stdout.txt" | head -1)
[ -n "$addr" ] || { echo "stress server never printed its address"; exit 1; }
echo "   bound at $addr"

# exit 0 from stress_serve == every connection opened and every request
# answered 200
"$STRESS_BIN" "$addr" --conns "$STRESS_CONNS" \
    --requests $(( STRESS_CONNS * 4 )) --threads 16 --json \
    > "$work/stress.json"
cat "$work/stress.json"
grep -q '"errors":0' "$work/stress.json"
# a p99 parseable as a sane number (microseconds, under 10s) — "flat"
# enough that no request sat behind a stalled peer for seconds
p99=$(sed -n 's/.*"p99_us":\([0-9]*\).*/\1/p' "$work/stress.json")
[ -n "$p99" ] && [ "$p99" -lt 10000000 ] \
    || { echo "stress p99 missing or degenerate: '$p99'"; exit 1; }

stats=$(curl -fsS "http://$addr/stats")
echo "$stats" | grep -q '"mismatch_count":0'
echo "$stats" | grep -q '"source":"cross-check"'
# the event loop saw (at least) every stress connection
peak=$(echo "$stats" | sed -n 's/.*"peak":\([0-9]*\).*/\1/p')
[ -n "$peak" ] && [ "$peak" -ge "$STRESS_CONNS" ] \
    || { echo "connection peak '$peak' below $STRESS_CONNS"; exit 1; }

echo "== stress server graceful shutdown"
kill -TERM "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=""
[ "$status" -eq 0 ] || { echo "stress server exited $status on a clean run"; exit 1; }
grep -q 'cross-check: 0 mismatches' "$work/stress_stderr.txt"
echo "stress smoke OK ($STRESS_CONNS conns, p99 ${p99}us, exit $status)"

#!/usr/bin/env bash
# End-to-end smoke of the cluster path: generate a CSR run directory,
# serve it three ways at once — one whole-run server, and a 2-node
# shard-subset cluster behind a `kron route` front end — and assert the
# routed answers, and those of a node asked directly about rows its peer
# owns, are byte-identical to the single node's. Then the
# failover leg: a 3-node cluster with every shard on two replicas gets
# one node SIGKILLed mid-/batch, and the answers must stay
# byte-identical with zero client-visible errors and failovers > 0 in
# the router's /stats (the batch's triangle lines fail their /wedges
# over to the surviving replica). Finishes with graceful shutdowns and the
# clusters' cross-check certifications (the auditing nodes check every
# answer they assemble, remote rows included).
# Run from the repo root; CI calls it after the release build.
set -euo pipefail

BIN=${KRON_BIN:-target/release/kron}
work=$(mktemp -d)
pids=()
trap 'for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$work"' EXIT

# The cluster nodes need each other's address up front (the ownership map
# is static), so pick two ports deterministically-ish and verify the
# binds below instead of using :0.
P0=$((21000 + $$ % 9000))
P1=$((P0 + 1))

start() { # name, logfile prefix, args...
    local name=$1; shift
    "$BIN" "$@" > "$work/$name.out" 2> "$work/$name.err" &
    pids+=($!)
    eval "${name}_pid=$!"
    for _ in $(seq 100); do
        grep -q '^listening on ' "$work/$name.out" 2>/dev/null && break
        sleep 0.1
    done
    local addr
    addr=$(sed -n 's|^listening on http://||p' "$work/$name.out" | head -1)
    [ -n "$addr" ] || { echo "$name never printed its address"; cat "$work/$name.err"; exit 1; }
    eval "${name}_addr=$addr"
    echo "   $name at $addr"
}

stop() { # name → asserts exit 0
    local name=$1 pid_var="${1}_pid" status=0
    local pid=${!pid_var}
    kill -TERM "$pid"
    wait "$pid" || status=$?
    [ "$status" -eq 0 ] || { echo "$name exited $status"; cat "$work/$name.err"; exit 1; }
}

echo "== generate a run directory (4 CSR shards)"
"$BIN" gen holme-kim --n 40 --m 2 --seed 7 --out "$work/a.tsv"
"$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/run" --shards 4 --format csr
"$BIN" verify-shards "$work/run"

echo "== start the whole-run reference server and the 2-node cluster"
start single serve "$work/run" --listen 127.0.0.1:0
start node0 serve "$work/run" --listen "127.0.0.1:$P0" --shards 0..2 \
    --peers "2..4=127.0.0.1:$P1" --source cross-check --cache 1024
start node1 serve "$work/run" --listen "127.0.0.1:$P1" --shards 2..4 \
    --peers "0..2=127.0.0.1:$P0"
start router route --peers "127.0.0.1:$P0,127.0.0.1:$P1" --listen 127.0.0.1:0

echo "== routed answers must be byte-identical to the single node's"
{
    for v in 0 7 57 199 1599; do
        echo "degree $v"
        echo "neighbors $v"
        echo "tri_vertex $v"
        echo "has_edge $v $(( (v + 3) % 1600 ))"
        echo "tri_edge $v $(( (v + 1) % 1600 ))"
    done
    echo "degree 1600"        # out of range: in-band error line
} > "$work/queries.txt"
curl -fsS --data-binary @"$work/queries.txt" "http://$single_addr/batch" > "$work/batch_single.txt"
curl -fsS --data-binary @"$work/queries.txt" "http://$router_addr/batch" > "$work/batch_routed.txt"
diff "$work/batch_single.txt" "$work/batch_routed.txt" \
    || { echo "routed /batch diverged from the single node"; exit 1; }
# asked of node 0 directly, the same batch names rows node 1 owns (vertex
# 1599's): node 0 asks node 1 for each in a one-vertex POST /rows, and
# its cross-checked answers are the single node's
curl -fsS --data-binary @"$work/queries.txt" "http://$node0_addr/batch" > "$work/batch_node0.txt"
diff "$work/batch_single.txt" "$work/batch_node0.txt" \
    || { echo "node 0's direct /batch diverged from the single node"; exit 1; }
node0_stats=$(curl -fsS "http://$node0_addr/stats")
echo "$node0_stats" | grep -q '"mismatch_count":0' \
    || { echo "node 0's direct /batch recorded a cross-check mismatch"; exit 1; }
echo "$node0_stats" | grep -q '"source":"cross-check"' \
    || { echo "node 0 does not report its cross-check source: $node0_stats"; exit 1; }
total() { # key → the router's summed peer counter
    curl -fsS "http://$router_addr/stats" | grep -o '"totals":{[^}]*}' \
        | grep -o "\"$1\":[0-9]*" | cut -d: -f2
}
# its triangle lines crossed the node boundary as wedge exchanges: the
# owning node shipped its row to the peer instead of pulling the peer's
wedges=$(total wedges_served)
[ "${wedges:-0}" -gt 0 ] || { echo "no /wedges traffic after the routed /batch"; exit 1; }
for q in 'degree%2057' 'tri_vertex%2057' 'neighbors%203' 'tri_edge%2057%2058'; do
    one=$(curl -fsS "http://$single_addr/query?q=$q")
    routed=$(curl -fsS "http://$router_addr/query?q=$q")
    [ "$one" = "$routed" ] || { echo "routed /query?q=$q diverged: $one vs $routed"; exit 1; }
done
# error paths are identical too (422 out of range through both)
for addr in "$single_addr" "$router_addr"; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/query?q=degree%209999999")
    [ "$code" = 422 ] || { echo "$addr: expected 422, got $code"; exit 1; }
done

echo "== routed traversals must be byte-identical to the single node's"
node_total() { # key → its first value summed over the two nodes' /stats
    local sum=0 addr
    for addr in "$node0_addr" "$node1_addr"; do
        sum=$((sum + $(curl -fsS "http://$addr/stats" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2)))
    done
    echo "$sum"
}
rows_before=$(node_total rows_served)
exchanges_before=$(node_total remote_fetches)
# sources and targets on both sides of the shard split, so the executing
# node fetches real cross-node rows; plus a bounded search that comes
# back unreachable in-band
for req in 'path?from=0&to=1599' 'path?from=1599&to=0' 'path?from=7&to=801' \
           'path?from=42&to=1125' 'path?from=0&to=1599&max_depth=1' \
           'khop?v=57&k=2' 'khop?v=801&k=1'; do
    one=$(curl -fsS "http://$single_addr/$req")
    routed=$(curl -fsS "http://$router_addr/$req")
    [ "$one" = "$routed" ] || { echo "routed /$req diverged: $one vs $routed"; exit 1; }
done
# the answers themselves are pinned: the diff above cannot see a change
# to the search that moves both sides alike. 42 -> 1125 is not the
# lexicographically smallest shortest path, [42,200,441,1125]: the
# search fixes its meeting vertex, 440, first (ARCHITECTURE.md
# § "Traversal serving")
pinned() { # request, expected body without its newline
    local got
    got=$(curl -fsS "http://$router_addr/$1")
    [ "$got" = "$2" ] || { echo "/$1 answered $got, pinned $2"; exit 1; }
}
pinned 'path?from=0&to=1599' '{"from":0,"to":1599,"hops":2,"path":[0,287,1599]}'
pinned 'path?from=1599&to=0' '{"from":1599,"to":0,"hops":2,"path":[1599,287,0]}'
pinned 'path?from=7&to=801' '{"from":7,"to":801,"hops":2,"path":[7,80,801]}'
pinned 'path?from=42&to=1125' '{"from":42,"to":1125,"hops":3,"path":[42,220,440,1125]}'
pinned 'path?from=0&to=1599&max_depth=1' '{"from":0,"to":1599,"max_depth":1,"unreachable":true}'
pinned 'khop?v=801&k=1' '{"v":801,"k":1,"reached":31,"levels":[1,30],"vertices":[[801],[0,3,4,5,10,22,23,25,34,35,80,83,84,85,90,102,103,105,114,115,1160,1163,1164,1165,1170,1182,1183,1185,1194,1195]]}'
# 630 vertices: the 2670-byte body is pinned by its sha256
sum=$(curl -fsS "http://$router_addr/khop?v=57&k=2" | sha256sum | cut -d' ' -f1)
[ "$sum" = 746aa575b8f5a071fab31ad3a3e8a144610d3b8881a99804fa2b14291c2a2e47 ] \
    || { echo "/khop?v=57&k=2 body has sha256 $sum"; exit 1; }
# out-of-range vertices are 422, garbage parameters 400 — through both tiers
for addr in "$single_addr" "$router_addr"; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/path?from=0&to=9999999")
    [ "$code" = 422 ] || { echo "$addr: /path oob expected 422, got $code"; exit 1; }
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/khop?v=0&k=abc")
    [ "$code" = 400 ] || { echo "$addr: /khop garbage expected 400, got $code"; exit 1; }
done

echo "== cluster health and merged stats"
[ "$(curl -fsS "http://$router_addr/healthz")" = "ok" ]
stats=$(curl -fsS "http://$router_addr/stats")
echo "$stats" | grep -q '"role":"router"'
echo "$stats" | grep -q '"mismatch_count":0'
# the traversals crossed the node boundary: the executing node fetched
# each BFS level's far rows over POST /rows, several rows an exchange
rows=$(total rows_served)
[ "${rows:-0}" -gt 0 ] || { echo "no /rows traffic from the traversals"; exit 1; }
rows=$(( $(node_total rows_served) - rows_before ))
exchanges=$(( $(node_total remote_fetches) - exchanges_before ))
[ "$exchanges" -gt 0 ] && [ "$rows" -gt "$exchanges" ] \
    || { echo "traversals moved $rows rows in $exchanges exchanges"; exit 1; }
# the router owns no rows: it refuses the internal level fetch
code=$(curl -s -o /dev/null -w '%{http_code}' --data-binary '' "http://$router_addr/rows")
[ "$code" = 404 ] || { echo "router: POST /rows expected 404, got $code"; exit 1; }
# /row speaks one encoding: node1 answers its first resident row varint
# delta encoded whether or not the fetch asks for enc=vd
lo=$(curl -fsS "http://$node1_addr/shards" | grep -o '"vertex_lo":[0-9]*' | cut -d: -f2)
for enc in '' '&enc=vd'; do
    ctype=$(curl -fsS -o /dev/null -w '%{content_type}' "http://$node1_addr/row?shard=2&v=$lo$enc")
    [ "$ctype" = application/kron-row-vd ] || { echo "/row?shard=2&v=$lo$enc answered $ctype"; exit 1; }
done

echo "== replicated cluster: 3 nodes, every shard on two replicas"
PA=$((P0 + 2)); PB=$((P0 + 3)); PC=$((P0 + 4))
# A and B split the run and each list TWO replicas for the far half (the
# other splitter, plus C); C serves the whole run. Killing C leaves every
# shard with exactly one live replica.
start nodeA serve "$work/run" --listen "127.0.0.1:$PA" --shards 0..2 \
    --peers "2..4=127.0.0.1:$PB,2..4=127.0.0.1:$PC" --source cross-check --cache 1024
start nodeB serve "$work/run" --listen "127.0.0.1:$PB" --shards 2..4 \
    --peers "0..2=127.0.0.1:$PA,0..2=127.0.0.1:$PC"
start nodeC serve "$work/run" --listen "127.0.0.1:$PC"
start router2 route --peers "127.0.0.1:$PA,127.0.0.1:$PB,127.0.0.1:$PC" \
    --listen 127.0.0.1:0 --rediscover 1

echo "== SIGKILL one replica mid-/batch: clients must not notice"
: > "$work/grid.txt"
for v in $(seq 0 1599); do
    {
        echo "degree $v"
        echo "neighbors $v"
        echo "tri_vertex $v"
        echo "has_edge $v $(( (v + 3) % 1600 ))"
        echo "tri_edge $v $(( (v + 1) % 1600 ))"
    } >> "$work/grid.txt"
done
curl -fsS --data-binary @"$work/grid.txt" "http://$single_addr/batch" > "$work/grid_single.txt"
curl -fsS --data-binary @"$work/grid.txt" "http://$router2_addr/batch" > "$work/grid_mid.txt" &
curl_pid=$!
sleep 0.05
kill -9 "$nodeC_pid"
wait "$curl_pid" || { echo "mid-kill /batch errored"; exit 1; }
diff "$work/grid_single.txt" "$work/grid_mid.txt" \
    || { echo "mid-kill /batch diverged from the single node"; exit 1; }
# with the replica gone for good, a full whole-grid batch still matches
curl -fsS --data-binary @"$work/grid.txt" "http://$router2_addr/batch" > "$work/grid_after.txt" \
    || { echo "post-kill /batch errored"; exit 1; }
diff "$work/grid_single.txt" "$work/grid_after.txt" \
    || { echo "post-kill /batch diverged from the single node"; exit 1; }
# traversals survive the kill too: the executing node fails its row
# fetches over to the surviving replica
for req in 'path?from=0&to=1599' 'khop?v=57&k=2'; do
    one=$(curl -fsS "http://$single_addr/$req")
    routed=$(curl -fsS "http://$router2_addr/$req")
    [ "$one" = "$routed" ] || { echo "post-kill /$req diverged: $one vs $routed"; exit 1; }
done
# the router's /stats tells the story: failovers happened, the killed
# replica is down, and the tolerant merge still answers 200
stats2=$(curl -fsS "http://$router2_addr/stats")
failovers=$(echo "$stats2" | grep -o '"failovers":[0-9]*' | head -1 | cut -d: -f2)
[ "${failovers:-0}" -gt 0 ] || { echo "router never failed over: $stats2"; exit 1; }
echo "$stats2" | grep -q '"up":false' \
    || { echo "killed replica not marked down: $stats2"; exit 1; }
echo "$stats2" | grep -q '"mismatch_count":0' \
    || { echo "failover must not poison cross-check: $stats2"; exit 1; }

echo "== graceful shutdowns (routers, then nodes, then the reference)"
stop router
stop router2
stop node0
grep -q 'cross-check: 0 mismatches' "$work/node0.err" \
    || { echo "node 0 did not certify its cross-checked run"; cat "$work/node0.err"; exit 1; }
stop node1
stop nodeA
grep -q 'cross-check: 0 mismatches' "$work/nodeA.err" \
    || { echo "node A did not certify its cross-checked run"; cat "$work/nodeA.err"; exit 1; }
stop nodeB
stop single
pids=()
echo "cluster smoke OK"

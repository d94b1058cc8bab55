#!/usr/bin/env bash
# End-to-end smoke of the csr2 shard format: generate a product, stream
# it twice (csr and csr2), verify both with full rehashing, answer an
# identical query batch over both and diff the answers byte for byte,
# then convert the v1 run in place with `kron compact`, re-verify it,
# and diff again — plus idempotence (a second compact converts nothing),
# the size claim (the csr2 artifacts are smaller), and the mid-compaction
# state (run.json still csr, one shard already csr2) verifying, answering
# and resuming. Run from the repo root; CI calls it after the release
# build.
set -euo pipefail

BIN=${KRON_BIN:-target/release/kron}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== generate a factor and stream it in both formats"
"$BIN" gen holme-kim --n 40 --m 2 --seed 7 --out "$work/a.tsv"
"$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/run_v1" --shards 4 --format csr
"$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/run_v2" --shards 4 --format csr2
"$BIN" verify-shards "$work/run_v1" --rehash
"$BIN" verify-shards "$work/run_v2" --rehash

csr_bytes=$(du -sb "$work/run_v1" | cut -f1)
csr2_bytes=$(du -sb "$work/run_v2" | cut -f1)
echo "   v1 run $csr_bytes bytes, csr2 run $csr2_bytes bytes"
[ "$csr2_bytes" -lt "$csr_bytes" ] \
    || { echo "csr2 run is not smaller than its v1 twin"; exit 1; }

echo "== same answers from both formats (every query kind, cross-checked)"
n=1600   # n_C of the 40-vertex factor squared
{
    for v in 0 1 57 123 799 1599; do
        echo "degree $v"
        echo "neighbors $v"
        echo "tri_vertex $v"
        echo "has_edge $v $(( (v + 3) % n ))"
        echo "tri_edge $v $(( (v + 1) % n ))"
    done
} > "$work/queries.txt"
"$BIN" serve "$work/run_v1" --queries "$work/queries.txt" \
    --source cross-check > "$work/answers_v1.txt"
"$BIN" serve "$work/run_v2" --queries "$work/queries.txt" \
    --source cross-check > "$work/answers_v2.txt"
diff -u "$work/answers_v1.txt" "$work/answers_v2.txt" \
    || { echo "csr and csr2 answers diverged"; exit 1; }

echo "== compact the v1 run in place and re-verify"
"$BIN" compact "$work/run_v1" | tee "$work/compact.txt"
grep -q '4 converted' "$work/compact.txt"
ls "$work/run_v1"/*.csr 2>/dev/null \
    && { echo "compact left v1 artifacts behind"; exit 1; }
"$BIN" verify-shards "$work/run_v1" --rehash
"$BIN" serve "$work/run_v1" --queries "$work/queries.txt" \
    --source cross-check > "$work/answers_compacted.txt"
diff -u "$work/answers_v2.txt" "$work/answers_compacted.txt" \
    || { echo "compacted run diverged from the csr2-native run"; exit 1; }

echo "== compact is idempotent"
"$BIN" compact "$work/run_v1" | tee "$work/compact2.txt"
grep -q '0 converted' "$work/compact2.txt"

echo "== a compact killed after its first shard: verify, answer, resume"
"$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/run_mid" --shards 4 --format csr
cp "$work/run_v1/shard_00000.csr2" "$work/run_v1/shard_00000.json" "$work/run_mid/"
rm "$work/run_mid/shard_00000.csr"
grep -q '"format":"csr"' "$work/run_mid/run.json"
"$BIN" verify-shards "$work/run_mid" --rehash
"$BIN" serve "$work/run_mid" --queries "$work/queries.txt" \
    --source cross-check > "$work/answers_mid.txt"
diff -u "$work/answers_v2.txt" "$work/answers_mid.txt" \
    || { echo "mid-compaction run diverged from the csr2-native run"; exit 1; }
"$BIN" compact "$work/run_mid" | tee "$work/compact_mid.txt"
grep -q '3 converted, 1 already csr2' "$work/compact_mid.txt"

echo "format smoke OK (csr2 ${csr2_bytes}B vs csr ${csr_bytes}B)"

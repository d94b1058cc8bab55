#!/usr/bin/env bash
# End-to-end smoke of the csr2 shard format: generate a product, stream
# it twice (csr and csr2), verify both with full rehashing, answer an
# identical query batch over both and diff the answers byte for byte,
# then compact the v1 run in place with `kron compact` to the recorded
# csr2 bytes and factor copies of the csr2 run, re-verify it and diff
# again — plus idempotence (a second compact regenerates nothing), the
# size claim (the csr2 artifacts are smaller), and a half-converted
# directory (run.json still csr, one shard already csr2) refused by
# `verify-shards` and `serve` naming the shard, then finished by
# `compact` — and the on-disk bytes themselves: both formats streamed
# with 1 and with 4 threads must agree file for file, and with sha256
# sums recorded before the write path went from entries to runs, and
# `--resume` regenerating a same-size artifact whose header was
# overwritten in place to exactly those bytes. A cross-checked batch over
# a run with many flipped column bytes, served twice on 2 threads, must
# log the same mismatches, ascending by query. Last,
# `kron stream` without `--format` must write exactly those csr2 bytes,
# and `--format edges` (a format no longer written) must be refused
# naming the accepted set. Run from the repo root; CI calls it after the
# release build.
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

# flip_byte FILE AT: xor the byte at offset AT with 1, in place
flip_byte() {
    local byte
    byte=$(od -An -tu1 -j"$2" -N1 "$1" | tr -d ' ')
    printf "\\$(printf '%03o' $((byte ^ 1)))" | dd of="$1" bs=1 seek="$2" conv=notrunc status=none
}

# the recorded csr2 sums, checked in directory $1
csr2_sums() {
    (cd "$1" && sha256sum --check --quiet - <<'SUMS'
62d92e938cd18fa37b350bd0da6b22e684006919052dad393e0f1b2347f713ec  shard_00000.csr2
fd33ae7edfebc8597c57dd61f10a8242b030c6af743655ebfee59bdfc01742c0  shard_00000.json
b6c31d459041037ba6478b2fb7a2621d5fa81896c5bd8cf966f3f4bc29dbf3e9  shard_00001.csr2
a77a358254aab664add6a1846f663b449ec8cb2bb3136222ed1aa11526b2e38a  shard_00001.json
72a25f64265a2845f7d9e9dec3e4142656025424a1d63f29fe2cd135b3985ba2  shard_00002.csr2
645edd7a09a97b0542d98e0a0c0738efee20e44991b1806344288e18b20d425d  shard_00002.json
b668b04020c3b63820ab7cde4c603db342bf65b9fe7b98a9894cb82ec8f681d5  shard_00003.csr2
adde39ea419aa06efc865f227894b4e754e1d158c037e6332e817bbd15fc6409  shard_00003.json
SUMS
    )
}
# run.json records the worker count and the wall time; nothing else may differ
run_json() { sed -E 's/"threads":[0-9]+,"elapsed_secs":[^,}]+/"threads":T,"elapsed_secs":S/' "$1/run.json"; }

echo "== a flipped column byte fails --rehash naming its file; a typo is refused"
f="$work/run_v1/shard_00002.csr"
cp "$f" "$work/good.csr"
rows=$(od -An -tu8 -j16 -N8 "$f" | tr -d ' ')
flip_byte "$f" $((32 + 8 * (rows + 1)))   # the shard's first column word
code=0; out=$("$BIN" verify-shards "$work/run_v1" --rehash 2>&1) || code=$?
[ "$code" -eq 1 ] || { echo "--rehash on a flipped byte exited $code: $out"; exit 1; }
grep -qF 'shard_00002.csr' <<<"$out" \
    || { echo "the --rehash failure does not name the shard's file: $out"; exit 1; }
mv "$work/good.csr" "$f"
code=0; out=$("$BIN" verify-shards "$work/run_v1" --rehsh 2>&1) || code=$?
[ "$code" -eq 1 ] && grep -qF 'unknown option --rehsh' <<<"$out" \
    || { echo "verify-shards --rehsh was not refused ($code): $out"; exit 1; }

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

echo "== a checked batch logs the same mismatches, ascending, on 2 threads"
cp -r "$work/run_v1" "$work/run_flipped"
f="$work/run_flipped/shard_00002.csr"
rows=$(od -An -tu8 -j16 -N8 "$f" | tr -d ' ')
nnz=$(od -An -tu8 -j24 -N8 "$f" | tr -d ' ')
for ((i = 0; i < nnz; i += 97)); do
    flip_byte "$f" $((32 + 8 * (rows + 1) + 8 * i))   # low byte of column word i
done
for ((v = 0; v < n; v++)); do
    echo "tri_vertex $v"
    echo "neighbors $v"
done > "$work/every_vertex.txt"
for run in 1 2; do
    code=0
    "$BIN" serve "$work/run_flipped" --queries "$work/every_vertex.txt" \
        --source cross-check --no-verify --threads 2 \
        > /dev/null 2> "$work/checked_$run.txt" || code=$?
    [ "$code" -eq 1 ] || { echo "checked batch $run on a flipped run exited $code"; exit 1; }
    grep -qF 'from cross-check on 2 thread(s)' "$work/checked_$run.txt" \
        || { echo "checked batch $run did not run on 2 threads"; exit 1; }
    grep '^cross-check mismatch: ' "$work/checked_$run.txt" > "$work/mismatches_$run.txt"
    grep -o 'cross-check: [0-9]* mismatch(es)' "$work/checked_$run.txt" > "$work/count_$run.txt"
done
cmp "$work/count_1.txt" "$work/count_2.txt" \
    || { echo "two checked runs counted different mismatches"; exit 1; }
cmp "$work/mismatches_1.txt" "$work/mismatches_2.txt" \
    || { echo "two checked runs logged different mismatches"; exit 1; }
[ -s "$work/mismatches_1.txt" ] || { echo "the flipped run logged no mismatch"; exit 1; }
# whole lines do not sort like (query, artifact, oracle) records when one
# query is a prefix of another, so check the query fields alone
sed -E 's/^cross-check mismatch: (.*): artifact says .*$/\1/' "$work/mismatches_1.txt" \
    | LC_ALL=C sort -c \
    || { echo "the mismatch log is not ascending by query"; exit 1; }
echo "   $(cat "$work/count_1.txt"), $(wc -l < "$work/mismatches_1.txt") logged, ascending"

echo "== compact the v1 run in place: the csr2 run's bytes, re-verified"
"$BIN" compact "$work/run_v1" | tee "$work/compact.txt"
grep -q '4 converted' "$work/compact.txt"
ls "$work/run_v1"/*.csr 2>/dev/null \
    && { echo "compact left v1 artifacts behind"; exit 1; }
csr2_sums "$work/run_v1" || { echo "the compacted run's bytes moved from the recorded sha256s"; exit 1; }
for f in factor_a.tsv factor_b.tsv; do
    cmp "$work/run_v1/$f" "$work/run_v2/$f" \
        || { echo "the compacted run's $f differs from the csr2 run's"; exit 1; }
done
# a compaction may differ from a fresh stream in resumed_shards too
informative() { run_json "$1" | sed -E 's/"resumed_shards":[0-9]+/"resumed_shards":R/'; }
[ "$(informative "$work/run_v1")" = "$(informative "$work/run_v2")" ] \
    || { echo "the compacted run.json differs beyond its informative fields"; exit 1; }
"$BIN" verify-shards "$work/run_v1" --rehash
"$BIN" serve "$work/run_v1" --queries "$work/queries.txt" \
    --source cross-check > "$work/answers_compacted.txt"
diff -u "$work/answers_v2.txt" "$work/answers_compacted.txt" \
    || { echo "compacted run diverged from the csr2-native run"; exit 1; }

echo "== compact is idempotent"
"$BIN" compact "$work/run_v1" | tee "$work/compact2.txt"
grep -q '0 converted' "$work/compact2.txt"
csr2_sums "$work/run_v1" || { echo "a second compact moved the bytes"; exit 1; }

echo "== a half-converted directory is refused naming the shard; compact finishes it"
"$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/run_mid" --shards 4 --format csr
cp "$work/run_v2/shard_00000.csr2" "$work/run_v2/shard_00000.json" "$work/run_mid/"
rm "$work/run_mid/shard_00000.csr"
grep -q '"format":"csr"' "$work/run_mid/run.json"
for cmd in verify-shards serve; do
    code=0
    case $cmd in
        verify-shards) out=$("$BIN" verify-shards "$work/run_mid" --rehash 2>&1) || code=$? ;;
        serve) out=$("$BIN" serve "$work/run_mid" --queries "$work/queries.txt" 2>&1) || code=$? ;;
    esac
    [ "$code" -eq 1 ] && grep -qF 'shard 0: manifest format csr2 has no place in a csr run' <<<"$out" \
        || { echo "$cmd did not refuse the half-converted run ($code): $out"; exit 1; }
done
"$BIN" compact "$work/run_mid" | tee "$work/compact_mid.txt"
grep -q '3 converted, 1 already csr2' "$work/compact_mid.txt"
csr2_sums "$work/run_mid" || { echo "the finished compaction's bytes moved from the recorded sha256s"; exit 1; }

echo "== on-disk bytes are pinned: any thread count, the recorded sha256s"
echo "1d411fadb1b2197a85f14621b62becf63892a4c7dd3c920b1a842b1eaa44162e  $work/a.tsv" \
    | sha256sum --check --quiet \
    || { echo "the fixed factor changed; the recorded sums below are for the old one"; exit 1; }
for fmt in csr csr2; do
    for t in 1 4; do
        "$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/pin_${fmt}_t$t" \
            --shards 4 --format "$fmt" --threads "$t" > /dev/null
    done
    for f in "$work/pin_${fmt}_t1"/shard_*; do
        cmp "$f" "$work/pin_${fmt}_t4/$(basename "$f")" \
            || { echo "$fmt: $(basename "$f") depends on the thread count"; exit 1; }
    done
    [ "$(run_json "$work/pin_${fmt}_t1")" = "$(run_json "$work/pin_${fmt}_t4")" ] \
        || { echo "$fmt: run.json differs beyond threads and elapsed_secs"; exit 1; }
done
(cd "$work/pin_csr_t1" && sha256sum --check --quiet - <<'SUMS'
ef8bdfddd8f5b28a9ac5339a9ea78fb0c840557eda91d7f074abc91a4628c897  shard_00000.csr
fef0438e2e82e188a8f45ce09ba6576c231dcb4d6264d3421b63f0b75a3f6cad  shard_00000.json
72a89876e35414604e4dd05455288f119ada722be70ae3a55c2c5c374130974a  shard_00001.csr
2366c2045712ac7c345d18524a5f8b36f586d8fd7472464b0ff43d11cfb18fef  shard_00001.json
979e73aaab519dd51f1173ff09085556da4772046258642a013762bfca9134cc  shard_00002.csr
4002e33fc2ad32b51ff58b6449a64c82734d4467ca38a8f122cc99d498718268  shard_00002.json
6d1a2840d54ff5f5410f84d000855d6362b2d7b08b26fc2eb9b595aa81a3e7fc  shard_00003.csr
b5cd3477b93d1cf6215038b4e90cdedd72c0de0aae52981f30d09583c7e0d082  shard_00003.json
SUMS
) || { echo "csr bytes moved from the recorded sha256s"; exit 1; }
csr2_sums "$work/pin_csr2_t1" || { echo "csr2 bytes moved from the recorded sha256s"; exit 1; }

echo "== --resume regenerates a same-size artifact whose header was overwritten"
cp -r "$work/run_v2" "$work/run_resume"
flip_byte "$work/run_resume/shard_00001.csr2" 8   # the low byte of vertex_lo
out=$("$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/run_resume" \
    --shards 4 --format csr2 --resume 2>&1)
grep -qF '(3 resumed)' <<<"$out" \
    || { echo "--resume kept the shard with the overwritten header: $out"; exit 1; }
"$BIN" verify-shards "$work/run_resume" --rehash
csr2_sums "$work/run_resume" || { echo "the resumed run's bytes moved from the recorded sha256s"; exit 1; }

echo "== no --format writes csr2, byte for byte; --format edges is refused"
for t in 1 4; do
    "$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/pin_default_t$t" \
        --shards 4 --threads "$t" > /dev/null
    for f in "$work/pin_csr2_t$t"/shard_*; do
        cmp "$f" "$work/pin_default_t$t/$(basename "$f")" \
            || { echo "default format: $(basename "$f") differs from --format csr2"; exit 1; }
    done
    [ "$(run_json "$work/pin_csr2_t$t")" = "$(run_json "$work/pin_default_t$t")" ] \
        || { echo "default format: run.json differs from --format csr2"; exit 1; }
    csr2_sums "$work/pin_default_t$t" \
        || { echo "default format bytes moved from the recorded sha256s"; exit 1; }
done
if refusal=$("$BIN" stream "$work/a.tsv" "$work/a.tsv" --out "$work/run_edges" \
        --format edges 2>&1); then
    echo "--format edges was accepted"; exit 1
fi
grep -qF 'unknown format "edges" (expected csr, csr2, or count)' <<<"$refusal" \
    || { echo "the edges refusal does not name the accepted set: $refusal"; exit 1; }

echo "format smoke OK (csr2 ${csr2_bytes}B vs csr ${csr_bytes}B)"

//! Integration + property tests of the `kron-stream` sharding subsystem:
//! shard completeness against the generator loop, CSR round-trips through
//! the mmap reader, and billion-edge-scale manifest arithmetic.

use kron::KronProduct;
use kron_gen::{rmat, RmatParams};
use kron_graph::Graph;
use kron_stream::{
    load_manifest, run_shard, stream_product, verify_shards, CsrMap, EdgeSink, OutputFormat,
    ShardPlan, StreamConfig,
};
use proptest::prelude::*;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kron_int_stream_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An arbitrary undirected graph on 2..=8 vertices, loops allowed.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=8).prop_flat_map(|n| {
        let pair = (0..n as u32, 0..n as u32);
        proptest::collection::vec(pair, 0..=(n * n / 2))
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

/// Collects every entry it is handed, in arrival order.
#[derive(Default)]
struct Collect(Vec<(u64, u64)>);

impl EdgeSink for Collect {
    fn push_run(&mut self, p: u64, cols: &[u64]) -> std::io::Result<()> {
        self.0.extend(cols.iter().map(|&q| (p, q)));
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<Option<(String, u64)>> {
        Ok(None)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shard completeness: concatenating all shard streams reproduces
    /// `KronProduct::adjacency_entries()` exactly (same multiset) for any
    /// factor pair and shard count — including counts above `n_A`, where
    /// some shards are empty.
    #[test]
    fn shards_concatenate_to_generator_loop(
        a in arb_graph(),
        b in arb_graph(),
        shards in 1usize..20,
    ) {
        let n_a = a.num_vertices();
        let c = KronProduct::new(a, b);
        let plan = ShardPlan::new(&c, shards);
        prop_assert_eq!(plan.len(), shards);
        let mut all: Vec<(u64, u64)> = Vec::new();
        for spec in plan.iter() {
            let mut sink = Collect::default();
            let m = run_shard(&c, spec, OutputFormat::Count, &mut sink).unwrap();
            prop_assert_eq!(m.entries as usize, sink.0.len());
            all.extend(sink.0);
        }
        let _ = n_a; // shard counts beyond n_A covered by the 1..20 range
        prop_assert_eq!(all.len() as u128, c.nnz());
        let mut expect: Vec<(u64, u64)> = c.adjacency_entries().collect();
        all.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(all, expect);
    }

    /// Per-shard closed-form checksums tile the global statistics for any
    /// factor pair and shard count.
    #[test]
    fn shard_stats_tile_global_stats(
        a in arb_graph(),
        b in arb_graph(),
        shards in 1usize..16,
    ) {
        let c = KronProduct::new(a, b);
        let plan = ShardPlan::new(&c, shards);
        prop_assert_eq!(plan.total_entries(), c.nnz());
        let loops: u128 = plan.iter().map(|s| s.stats.self_loops).sum();
        prop_assert_eq!(loops, c.num_self_loops());
        let tri: u128 = plan.iter().map(|s| s.stats.triangle_sum).sum();
        prop_assert_eq!(tri, 3 * c.total_triangles());
        let deg: u128 = plan.iter().map(|s| s.stats.degree_sum).sum();
        prop_assert_eq!(deg, c.nnz() - c.num_self_loops());
    }
}

#[test]
fn csr_artifacts_roundtrip_bit_exactly() {
    // acceptance: the mmap CSR reader reproduces a small product exactly
    let dir = tmpdir("roundtrip");
    let a = kron_gen::holme_kim(40, 3, 0.7, 11);
    let b = kron_gen::one_triangle_per_edge(24, 5).with_all_self_loops();
    let c = KronProduct::new(a, b);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 9;
    stream_product(&c, &cfg).unwrap();
    verify_shards(&dir, true).unwrap();
    let mut seen_rows = 0u64;
    for shard in 0..cfg.shards {
        let m = load_manifest(&dir, shard).unwrap();
        let r = CsrMap::open(&dir.join(m.file.as_deref().unwrap())).unwrap();
        for p in m.vertices.clone() {
            assert_eq!(&*r.row(p).unwrap(), c.neighbors(p).as_slice(), "row {p}");
            seen_rows += 1;
        }
    }
    assert_eq!(seen_rows, c.num_vertices());
    std::fs::remove_dir_all(&dir).ok();
}

/// One shard of a golden run: the manifest's stream hash, then the
/// artifact — `(len, FNV-1a 64)` where the bytes are too many to spell.
type GoldenShard = ((u64, u64), (usize, u64));

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Stream `c` as `format` with `threads` workers and return every shard's
/// manifest hash and artifact bytes.
fn streamed_shards(
    c: &KronProduct,
    shards: usize,
    format: OutputFormat,
    threads: usize,
) -> Vec<((u64, u64), Vec<u8>)> {
    let dir = tmpdir(&format!("golden_{}_{shards}_{threads}", format.as_str()));
    let mut cfg = StreamConfig::new(&dir, format);
    (cfg.shards, cfg.threads) = (shards, threads);
    stream_product(c, &cfg).unwrap();
    let out = (0..shards)
        .map(|shard| {
            let m = load_manifest(&dir, shard).unwrap();
            let bytes = std::fs::read(dir.join(m.file.as_deref().unwrap())).unwrap();
            assert_eq!(bytes.len() as u64, m.file_bytes);
            ((m.hash.sum, m.hash.xor), bytes)
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// On-disk bytes are a contract: every constant below was recorded from
/// the commit *before* the write path went from entries to runs, so a
/// writer that moves one byte of any format, for any thread count, fails
/// here. (`scripts/format_smoke.sh` pins a third product by sha256.)
#[test]
fn artifact_bytes_and_manifest_hashes_equal_the_recorded_constants() {
    // A: an edge, a loop and an isolated vertex; B: a triangle. Two shards.
    let tiny = KronProduct::new(
        Graph::from_edges(3, [(0, 1), (1, 1)]),
        Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]),
    );
    let hashes = [
        (0x0866_bd3b_5104_6dfe, 0x0f39_a8bd_e2c6_b89a),
        (0x20f0_da3c_6576_755b, 0x0c66_caf1_265e_1589),
    ];
    // header (magic, vertex_lo, num_rows, nnz) and offsets, as LE words…
    let words = |magic: &[u8; 8], rest: &[u64]| -> Vec<u8> {
        let rest = rest.iter().flat_map(|w| w.to_le_bytes());
        magic.iter().copied().chain(rest).collect()
    };
    // …then the columns: words again for csr, varint gaps for csr2
    let csr = [
        words(b"KRONCSR1", &[0, 3, 6, 0, 2, 4, 6, 4, 5, 3, 5, 3, 4]),
        words(
            b"KRONCSR1",
            &[
                3, 6, 12, 0, 4, 8, 12, 12, 12, 12, 1, 2, 4, 5, 0, 2, 3, 5, 0, 1, 3, 4,
            ],
        ),
    ];
    let csr2 = [
        [
            words(b"KRONCSR2", &[0, 3, 6, 0, 2, 4, 6]),
            vec![4, 1, 3, 2, 3, 1],
        ]
        .concat(),
        [
            words(b"KRONCSR2", &[3, 6, 12, 0, 4, 8, 12, 12, 12, 12]),
            vec![1, 1, 2, 1, 0, 2, 1, 2, 0, 1, 2, 1],
        ]
        .concat(),
    ];

    // star(100) ⊗ looped star(100): a 9 900-entry hub row (several runs),
    // multi-byte varints, three shards — pinned by length and digest.
    let star = kron_gen::deterministic::star(100);
    let hub = KronProduct::new(star.clone(), star.with_all_self_loops());
    let hub_hashes = [
        (0x656e_109a_a226_32ac, 0x6ce7_d67e_0a17_d394),
        (0xa077_be14_7d8c_d58f, 0xb9f4_146e_7348_4339),
        (0xbaac_2427_b7f1_494b, 0x686c_557c_8157_4da5),
    ];
    let hub_files = [
        (
            OutputFormat::Csr,
            [
                (236_856, 0x5bb8_3f9e_76f1_19f1),
                (105_112, 0x5799_83bf_9fc8_c12d),
                (210_184, 0xd9ce_f634_bd40_dee6),
            ],
        ),
        (
            OutputFormat::Csr2,
            [
                (30_342, 0xf472_89ab_e171_5ab9),
                (36_274, 0x50da_f3fa_f256_7b5d),
                (72_508, 0x826e_b67c_2eca_ae5b),
            ],
        ),
    ];

    for threads in [1, 4] {
        for (format, files) in [(OutputFormat::Csr, &csr), (OutputFormat::Csr2, &csr2)] {
            let got = streamed_shards(&tiny, 2, format, threads);
            let want: Vec<_> = hashes.iter().copied().zip(files.iter().cloned()).collect();
            assert_eq!(got, want, "tiny {} x{threads}", format.as_str());
        }
        for (format, files) in hub_files {
            let got: Vec<GoldenShard> = streamed_shards(&hub, 3, format, threads)
                .into_iter()
                .map(|(hash, bytes)| (hash, (bytes.len(), fnv1a64(&bytes))))
                .collect();
            let want: Vec<GoldenShard> = hub_hashes.iter().copied().zip(files).collect();
            assert_eq!(got, want, "hub {} x{threads}", format.as_str());
        }
    }
}

/// The acceptance-scale plan: two 2¹⁰-vertex R-MAT factors whose product
/// has ≥ 10⁹ adjacency entries, across 8+ shards. Manifest arithmetic is
/// closed form, so this is fast; the `#[ignore]`d test below actually
/// streams the billion entries.
#[test]
fn billion_edge_plan_manifests_sum_exactly() {
    let a = rmat(10, 32, RmatParams::graph500(), 42);
    let b = rmat(10, 32, RmatParams::graph500(), 43);
    let c = KronProduct::new(a, b);
    assert!(c.nnz() >= 1_000_000_000, "product too small: {}", c.nnz());
    for shards in [8, 13, 64] {
        let plan = ShardPlan::new(&c, shards);
        let sum: u128 = plan.iter().map(|s| s.stats.nnz).sum();
        assert_eq!(
            sum,
            c.nnz(),
            "per-shard edge counts must sum to nnz(A)·nnz(B)"
        );
        let tri: u128 = plan.iter().map(|s| s.stats.triangle_sum).sum();
        assert_eq!(tri, 3 * c.total_triangles());
        // nnz balance: no shard more than 2× the fair share at this scale
        let fair = c.nnz() / shards as u128;
        assert!(plan.max_shard_entries() < 2 * fair);
    }
}

/// Full acceptance run: stream all ≥10⁹ entries (count sinks — no 16 GB
/// artifact), then `verify-shards --rehash` every shard. Run explicitly:
/// `cargo test --release -p kron-suite -- --ignored billion_edge_stream`.
#[test]
#[ignore = "streams >1e9 entries; run in release"]
fn billion_edge_stream_validates() {
    let dir = tmpdir("billion");
    let a = rmat(10, 32, RmatParams::graph500(), 42);
    let b = rmat(10, 32, RmatParams::graph500(), 43);
    let c = KronProduct::new(a, b);
    assert!(c.nnz() >= 1_000_000_000);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Count);
    cfg.shards = 64;
    let run = stream_product(&c, &cfg).unwrap();
    assert_eq!(run.total_entries, c.nnz());
    let report = verify_shards(&dir, true).unwrap();
    assert_eq!(report.total_entries, c.nnz());
    std::fs::remove_dir_all(&dir).ok();
}

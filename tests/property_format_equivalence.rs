//! v1 ↔ csr2 equivalence: the compressed shard format is an encoding,
//! not a semantic change.
//!
//! For randomized small products streamed twice — once as `csr` (v1,
//! raw `u64` columns) and once as `csr2` (varint delta columns) — every
//! observable answer must be **byte-identical** across the two runs:
//! the engine's full query grid, whole-graph analyze kernels' result
//! documents, an HTTP server's `/query` and `/batch` wire bytes, and a
//! 2-node cluster resident on the csr2 artifact versus a single node on
//! the v1 twin. A cross-check engine over the csr2 run must reconcile
//! clean against the closed forms, and `kron compact`'s library entry
//! point must turn the v1 twin into a csr2 run that still answers the
//! same.

use kron::KronProduct;
use kron_analyze::{run_kernel, scan_rows, AnalyzeError, Kernel, KernelSpec};
use kron_graph::Graph;
use kron_serve::http::{encode_query_component, Client};
use kron_serve::{AnswerSource, OpenOptions, PeerSpec, ServeEngine, Server, ServerOptions};
use kron_stream::{
    compact_run, decode_row_vd, load_manifest, stream_product, OutputFormat, ShardSet, StreamConfig,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// An arbitrary undirected graph on 2..=6 vertices, loops allowed.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=6).prop_flat_map(move |n| {
        let pair = (0..n as u32, 0..n as u32);
        proptest::collection::vec(pair, 1..=(n * n / 2).max(2))
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

/// A unique scratch directory per generated case.
fn case_dir(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kron_prop_fmt_{tag}_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Stream `c` into a fresh directory in the given format.
fn stream(c: &KronProduct, fmt: OutputFormat, shards: usize, tag: &str) -> std::path::PathBuf {
    let dir = case_dir(tag);
    let mut cfg = StreamConfig::new(&dir, fmt);
    cfg.shards = shards;
    stream_product(c, &cfg).unwrap();
    dir
}

/// Every query kind at every vertex, plus out-of-range error shapes —
/// the same grid `integration_cluster` replays.
fn query_grid(n: u64) -> Vec<String> {
    let mut queries = Vec::new();
    for v in 0..n {
        queries.push(format!("degree {v}"));
        queries.push(format!("neighbors {v}"));
        queries.push(format!("tri_vertex {v}"));
        queries.push(format!("has_edge {v} {}", (v + 3) % n));
        queries.push(format!("tri_edge {v} {}", (v + 1) % n));
    }
    queries.push(format!("degree {n}")); // out of range → 422
    queries.push(format!("tri_edge {n} 0"));
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `row_len_bound` — what the server's event thread sizes a row by
    /// without decoding it — never under-reports: exact for v1, at least
    /// the decoded length for csr2, `None` outside the shard.
    #[test]
    fn row_len_bound_covers_the_decoded_row_in_both_formats(
        a in arb_graph(),
        b in arb_graph(),
        shards in 1usize..4,
    ) {
        let c = KronProduct::new(a, b);
        for fmt in [OutputFormat::Csr, OutputFormat::Csr2] {
            let dir = stream(&c, fmt, shards, "bound");
            let set = ShardSet::open(&dir).unwrap();
            for v in 0..c.num_vertices() {
                let reader = &set.local(set.route(v).unwrap()).unwrap().reader;
                let len = reader.row(v).unwrap().len();
                let bound = reader.row_len_bound(v).unwrap();
                prop_assert!(bound >= len, "{fmt:?} row {v}: bound {bound} < {len} entries");
                prop_assert!(reader.is_v2() || bound == len);
            }
            for shard in set.shards() {
                let end = shard.reader.vertex_lo() + shard.reader.num_rows();
                prop_assert_eq!(shard.reader.row_len_bound(end), None);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Engine answers, kernel result documents, and the cross-check
    /// audit are identical between a v1 run and its csr2 twin — and
    /// stay identical after `compact_run` rewrites the v1 twin in
    /// place.
    #[test]
    fn engine_and_kernels_are_format_blind(
        a in arb_graph(),
        b in arb_graph(),
        shards in 1usize..4,
    ) {
        let c = KronProduct::new(a, b);
        let v1 = stream(&c, OutputFormat::Csr, shards, "v1");
        let v2 = stream(&c, OutputFormat::Csr2, shards, "v2");

        let e1 = ServeEngine::open_verified(&v1).unwrap();
        let e2 = ServeEngine::open_verified(&v2).unwrap();
        let audit = ServeEngine::open_with(
            &v2,
            &OpenOptions { source: AnswerSource::CrossCheck, ..OpenOptions::default() },
        ).unwrap();

        let n = c.num_vertices();
        for v in 0..n {
            prop_assert_eq!(e1.degree(v).unwrap(), e2.degree(v).unwrap());
            prop_assert_eq!(e1.neighbors(v).unwrap(), e2.neighbors(v).unwrap());
            prop_assert_eq!(
                e1.vertex_triangles(v).unwrap(),
                e2.vertex_triangles(v).unwrap()
            );
            prop_assert_eq!(audit.neighbors(v).unwrap().as_ref(), c.neighbors(v).as_slice());
            for q in 0..n {
                prop_assert_eq!(e1.has_edge(v, q).unwrap(), e2.has_edge(v, q).unwrap());
                prop_assert_eq!(
                    e1.edge_triangles(v, q).unwrap(),
                    e2.edge_triangles(v, q).unwrap()
                );
                audit.edge_triangles(v, q).unwrap();
            }
        }
        prop_assert_eq!(audit.mismatch_count(), 0, "csr2 must reconcile clean");

        // Whole-graph kernels: byte-identical result documents.
        let stop = AtomicBool::new(false);
        for kernel in [Kernel::Bfs, Kernel::Cc, Kernel::Pagerank, Kernel::TriCensus] {
            let spec = KernelSpec::new(kernel);
            let d1 = run_kernel(e1.shard_set(), &spec, &stop).unwrap();
            let d2 = run_kernel(e2.shard_set(), &spec, &stop).unwrap();
            prop_assert_eq!(
                d1.to_string(),
                d2.to_string(),
                "kernel {:?} diverged between formats",
                kernel
            );
        }

        // In-place compaction: the compacted v1 twin is now csr2 and
        // still answers the original grid.
        let report = compact_run(&v1).unwrap();
        prop_assert_eq!(report.converted, shards);
        let e1c = ServeEngine::open_verified(&v1).unwrap();
        for v in 0..n {
            prop_assert_eq!(e1c.neighbors(v).unwrap(), e2.neighbors(v).unwrap());
            prop_assert_eq!(
                e1c.vertex_triangles(v).unwrap(),
                e2.vertex_triangles(v).unwrap()
            );
        }

        std::fs::remove_dir_all(&v1).ok();
        std::fs::remove_dir_all(&v2).ok();
    }

    /// The wire is format-blind too: a server over the csr2 run — and a
    /// 2-node cluster resident on it, exchanging varint rows — answers
    /// `/query` and `/batch` byte-identically to a server over the v1
    /// twin.
    #[test]
    fn servers_and_cluster_answer_byte_identically(
        a in arb_graph(),
        b in arb_graph(),
    ) {
        let c = KronProduct::new(a, b);
        // ≥ 2 shards so the cluster split is real
        let v1 = stream(&c, OutputFormat::Csr, 2, "wire_v1");
        let v2 = stream(&c, OutputFormat::Csr2, 2, "wire_v2");
        let n = c.num_vertices();

        let single_srv = Server::bind("127.0.0.1:0").unwrap();
        let node0_srv = Server::bind("127.0.0.1:0").unwrap();
        let node1_srv = Server::bind("127.0.0.1:0").unwrap();
        let (addr_single, addr0, addr1) = (
            single_srv.local_addr().unwrap(),
            node0_srv.local_addr().unwrap(),
            node1_srv.local_addr().unwrap(),
        );

        let single = ServeEngine::open_verified(&v1).unwrap();
        let node = |subset: std::ops::Range<usize>, peer: String, peer_shards| {
            ServeEngine::open_with(
                &v2,
                &OpenOptions {
                    shard_subset: Some(subset),
                    peers: vec![PeerSpec { shards: peer_shards, addr: peer }],
                    ..OpenOptions::default()
                },
            )
            .unwrap()
        };
        let node0 = node(0..1, addr1.to_string(), 1..2);
        let node1 = node(1..2, addr0.to_string(), 0..1);

        let stop = AtomicBool::new(false);
        let opts = ServerOptions::default();
        std::thread::scope(|s| {
            s.spawn(|| single_srv.run(&single, &opts, &stop).unwrap());
            s.spawn(|| node0_srv.run(&node0, &opts, &stop).unwrap());
            s.spawn(|| node1_srv.run(&node1, &opts, &stop).unwrap());

            let mut one = Client::connect(addr_single).unwrap();
            let mut n0 = Client::connect(addr0).unwrap();

            // plain asserts: the scope closure cannot carry a
            // TestCaseResult, and a panic still fails the case
            let queries = query_grid(n);
            for q in &queries {
                let path = format!("/query?q={}", encode_query_component(q));
                let want = one.get(&path).unwrap();
                let got = n0.get(&path).unwrap();
                assert_eq!(got, want, "cluster node over csr2 diverged on {q}");
            }
            let body: String = queries.iter().map(|q| format!("{q}\n")).collect();
            let want = one.post("/batch", body.as_bytes()).unwrap();
            let got = n0.post("/batch", body.as_bytes()).unwrap();
            assert_eq!(got, want, "batch diverged between formats");
            assert_eq!(want.0, 200);

            stop.store(true, Ordering::SeqCst);
            drop((one, n0));
        });

        std::fs::remove_dir_all(&v1).ok();
        std::fs::remove_dir_all(&v2).ok();
    }
}

/// The wire encoding has to earn its keep: over every row of a
/// scale-free product (vertex ids well past one varint byte), the
/// `/row` bodies a cluster peer fetches total at least 1.5× fewer bytes
/// than the rows as little-endian words (8 bytes an entry) — from a csr2 run
/// (encoded bytes handed out as stored) and from its v1 twin (encoded on
/// the fly) alike.
#[test]
fn vd_row_bodies_are_at_least_1_5x_smaller_than_raw() {
    let a = kron_gen::holme_kim(40, 3, 0.75, 2018);
    let b = kron_gen::holme_kim(40, 3, 0.75, 2019);
    let c = KronProduct::new(a, b);
    for (fmt, tag) in [(OutputFormat::Csr2, "vd_v2"), (OutputFormat::Csr, "vd_v1")] {
        let dir = stream(&c, fmt, 3, tag);
        let engine = ServeEngine::open_verified(&dir).unwrap();
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        let (raw, vd) = std::thread::scope(|s| {
            s.spawn(|| {
                server
                    .run(&engine, &ServerOptions::default(), &stop)
                    .unwrap()
            });
            let mut client = Client::connect(addr).unwrap();
            let set = engine.shard_set();
            let (mut raw, mut vd) = (0usize, 0usize);
            for shard in 0..set.num_shards() {
                for v in set.shard_vertices(shard).unwrap() {
                    let path = format!("/row?shard={shard}&v={v}&enc=vd");
                    let (status, body) = client.get_bytes(&path).unwrap();
                    let mut row = Vec::new();
                    assert_eq!(status, 200, "{path}");
                    assert!(decode_row_vd(&body, &mut row), "{path}");
                    raw += 8 * row.len();
                    vd += body.len();
                }
            }
            stop.store(true, Ordering::SeqCst);
            (raw, vd)
        });
        assert_eq!(raw as u128, 8 * c.nnz(), "the sweep covered every entry");
        assert!(
            raw as f64 >= 1.5 * vd as f64,
            "{tag}: varint delta rows must cut /row wire bytes by at least 1.5x \
             (raw {raw}, vd {vd})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One read path: whatever a run directory's format — v1 or csr2 —
/// every consumer hands back the row the
/// closed form generates, for every vertex: the shard set, the analyze
/// scan driver, the engine under `artifact` and `cross-check`, and a
/// decoded `GET /row` body, asked for with and without `enc=vd`.
#[test]
fn every_consumer_sees_the_same_row() {
    let a = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)]);
    let b = kron_gen::holme_kim(30, 3, 0.6, 11);
    let c = KronProduct::new(a, b);
    let n = c.num_vertices();
    let runs = [
        ("v1", stream(&c, OutputFormat::Csr, 3, "rows_v1")),
        ("csr2", stream(&c, OutputFormat::Csr2, 3, "rows_v2")),
    ];
    for (tag, dir) in &runs {
        let set = ShardSet::open_verified(dir).unwrap();
        let idle = AtomicBool::new(false);
        // the scan driver: every vertex exactly once, ascending, in plan
        // order across chunk accumulators
        let scanned: Vec<(u64, Vec<u64>)> = scan_rows(
            &set,
            &idle,
            |_| true,
            |acc: &mut Vec<(u64, Vec<u64>)>, v, row| {
                acc.push((v, row.to_vec()));
                Ok(())
            },
        )
        .unwrap()
        .concat();
        let visited: Vec<u64> = scanned.iter().map(|(v, _)| *v).collect();
        assert_eq!(visited, (0..n).collect::<Vec<_>>(), "{tag}: scan order");

        let artifact = ServeEngine::open_verified(dir).unwrap();
        let audit = ServeEngine::open_with(
            dir,
            &OpenOptions {
                source: AnswerSource::CrossCheck,
                ..OpenOptions::default()
            },
        )
        .unwrap();
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                server
                    .run(&artifact, &ServerOptions::default(), &stop)
                    .unwrap()
            });
            let mut client = Client::connect(addr).unwrap();
            for v in 0..n {
                let want = c.neighbors(v);
                assert_eq!(&*set.row(v).unwrap(), want.as_slice(), "{tag}: set.row {v}");
                assert_eq!(scanned[v as usize].1, want, "{tag}: scan {v}");
                assert_eq!(artifact.neighbors(v).unwrap(), want.as_slice(), "{tag}");
                assert_eq!(audit.neighbors(v).unwrap(), want.as_slice(), "{tag}");
                let shard = set.route(v).unwrap();
                for enc in ["", "&enc=vd"] {
                    let (status, vd) = client
                        .get_bytes(&format!("/row?shard={shard}&v={v}{enc}"))
                        .unwrap();
                    assert_eq!(status, 200);
                    let mut decoded = Vec::new();
                    assert!(decode_row_vd(&vd, &mut decoded), "{tag}: /row {v}{enc}");
                    assert_eq!(decoded, want, "{tag}: /row {v}{enc}");
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(audit.mismatch_count(), 0, "{tag}");
    }

    // Cancellation: the flag is polled before every row, so the row that
    // raises it is the last one visited. One worker makes the plan order
    // the execution order, so "last" is checkable exactly.
    let set = ShardSet::open(&runs[0].1).unwrap();
    let stop = AtomicBool::new(false);
    let visited = std::sync::Mutex::new(Vec::new());
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let cancelled = one.install(|| {
        scan_rows(
            &set,
            &stop,
            |_| true,
            |_: &mut (), v, _| {
                visited.lock().unwrap().push(v);
                if v == 5 {
                    stop.store(true, Ordering::SeqCst);
                }
                Ok(())
            },
        )
    });
    assert!(matches!(cancelled, Err(AnalyzeError::Cancelled)));
    assert_eq!(*visited.lock().unwrap(), (0..=5).collect::<Vec<u64>>());

    // The two ways a row can be unusable, with the texts the kernels have
    // always reported them by. Both defects sit in shard 0, past its
    // offset table: the first column word (v1), the last stream byte (csr2).
    let first_row = |dir: &std::path::Path| {
        let m = load_manifest(dir, 0).unwrap();
        let body = 32 + 8 * (m.vertices.end - m.vertices.start + 1) as usize;
        (dir.join(m.file.unwrap()), body)
    };
    let scan_err = |dir: &std::path::Path| {
        let set = ShardSet::open(dir).expect("structure is intact");
        let idle = AtomicBool::new(false);
        let read_columns = |_: &mut (), _, row: &kron_analyze::Row<'_>| {
            row.cols().for_each(drop);
            Ok(())
        };
        match scan_rows(&set, &idle, |_| true, read_columns) {
            Err(AnalyzeError::Corrupt(msg)) => msg,
            other => panic!("expected a corrupt-artifact error, got {other:?}"),
        }
    };
    let (path, body) = first_row(&runs[0].1);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[body..body + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        scan_err(&runs[0].1),
        format!(
            "row 0 names vertex {}, but the product has only {n}",
            u64::MAX
        )
    );
    let (path, _) = first_row(&runs[1].1);
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() |= 0x80; // the last row's varint now runs off its end
    std::fs::write(&path, &bytes).unwrap();
    let last = load_manifest(&runs[1].1, 0).unwrap().vertices.end - 1;
    assert_eq!(
        scan_err(&runs[1].1),
        format!("shard 0 is missing row {last}")
    );

    for (_, dir) in &runs {
        std::fs::remove_dir_all(dir).ok();
    }
}

//! Integration tests of the `kron-serve` query engine: every statistic
//! answered off the mmap'd CSR shards must equal what the in-memory
//! `crates/triangles` kernels compute on the materialized graph, and what
//! the `kron` closed forms predict — the same three-way validation
//! discipline the paper applies to its formulas.

use kron::KronProduct;
use kron_gen::holme_kim;
use kron_graph::Graph;
use kron_serve::{parse_queries, run_batch, Answer, Query, ServeEngine};
use kron_stream::{stream_product, OutputFormat, StreamConfig};
use kron_triangles::{count_triangles, edge_participation, vertex_participation};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kron_int_serve_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Stream `c` into CSR shards and open a checksum-verified engine on them.
fn served(dir: &std::path::Path, c: &KronProduct, shards: usize) -> ServeEngine {
    let mut cfg = StreamConfig::new(dir, OutputFormat::Csr);
    cfg.shards = shards;
    stream_product(c, &cfg).unwrap();
    ServeEngine::open_verified(dir).unwrap()
}

/// The central acceptance test: a scale-free product with loops in one
/// factor, served from disk, cross-checked vertex-by-vertex and
/// edge-by-edge against the in-memory triangle kernels on the
/// materialized graph.
#[test]
fn served_statistics_match_in_memory_triangle_kernels() {
    let a = holme_kim(28, 3, 0.6, 7);
    let b = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0), (3, 4)]);
    let c = KronProduct::new(a, b);
    let dir = tmpdir("kernels");
    let engine = served(&dir, &c, 7);

    // materialize the product and run the paper's direct kernels on it
    let g = c.materialize(1 << 24).unwrap();
    let t = vertex_participation(&g);
    let delta = edge_participation(&g);

    assert_eq!(engine.num_vertices(), c.num_vertices());
    for v in 0..c.num_vertices() as u32 {
        let vu = v as u64;
        assert_eq!(engine.degree(vu).unwrap(), g.degree(v), "degree({v})");
        let row: Vec<u64> = g.adj_row(v).iter().map(|&u| u as u64).collect();
        assert_eq!(engine.neighbors(vu).unwrap(), row.as_slice(), "N({v})");
        assert_eq!(
            engine.vertex_triangles(vu).unwrap(),
            t[v as usize],
            "t_C({v})"
        );
        // per-edge counts on every adjacency slot of the row
        for &u in g.adj_row(v) {
            let want = delta[g.edge_slot(v, u).unwrap()];
            assert_eq!(
                engine.edge_triangles(vu, u as u64).unwrap(),
                Some(want),
                "Δ_C({v},{u})"
            );
        }
    }

    // global triangle count reconstructed from served per-vertex counts
    let total: u64 = (0..c.num_vertices())
        .map(|v| engine.vertex_triangles(v).unwrap())
        .sum();
    assert_eq!(u128::from(total / 3), c.total_triangles());
    assert_eq!(total / 3, count_triangles(&g).triangles);

    std::fs::remove_dir_all(&dir).ok();
}

/// has_edge over the full vertex-pair grid, against both the closed form
/// and the materialized adjacency.
#[test]
fn served_has_edge_matches_product_and_graph() {
    let a = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3)]);
    let c = KronProduct::new(a.clone(), a);
    let dir = tmpdir("has_edge");
    let engine = served(&dir, &c, 3);
    let g = c.materialize(1 << 20).unwrap();
    for u in 0..c.num_vertices() {
        for v in 0..c.num_vertices() {
            let got = engine.has_edge(u, v).unwrap();
            assert_eq!(got, c.has_edge(u, v), "closed form ({u},{v})");
            assert_eq!(got, g.has_edge(u as u32, v as u32), "graph ({u},{v})");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The batch driver answers a mixed query file identically to the point
/// queries, in input order, with sane stats.
#[test]
fn batch_file_roundtrip_matches_point_queries() {
    let a = holme_kim(20, 2, 0.5, 3);
    let c = KronProduct::new(a.clone(), a);
    let dir = tmpdir("batch");
    let engine = served(&dir, &c, 4);

    let mut file = String::from("# mixed batch\n");
    let mut expect: Vec<Query> = Vec::new();
    for v in (0..c.num_vertices()).step_by(17) {
        file.push_str(&format!("degree {v}\ntri_vertex {v}\n"));
        expect.push(Query::Degree(v));
        expect.push(Query::VertexTriangles(v));
        if let Some(&u) = engine.neighbors(v).unwrap().first() {
            file.push_str(&format!("has_edge {v} {u}\ntri_edge {v} {u}\n"));
            expect.push(Query::HasEdge(v, u));
            expect.push(Query::EdgeTriangles(v, u));
        }
    }
    let queries = parse_queries(&file).unwrap();
    assert_eq!(queries, expect);

    let out = run_batch(&engine, &queries);
    assert_eq!(out.stats.queries, queries.len());
    assert_eq!(out.stats.errors, 0);
    assert!(out.stats.wedge_checks > 0);
    for (q, ans) in queries.iter().zip(&out.answers) {
        let want = match *q {
            Query::Degree(v) => Answer::Count(engine.degree(v).unwrap()),
            Query::VertexTriangles(v) => Answer::Count(engine.vertex_triangles(v).unwrap()),
            Query::HasEdge(u, v) => Answer::Bool(engine.has_edge(u, v).unwrap()),
            Query::EdgeTriangles(u, v) => match engine.edge_triangles(u, v).unwrap() {
                Some(d) => Answer::Count(d),
                None => Answer::NotAnEdge,
            },
            Query::Neighbors(v) => Answer::Row(engine.neighbors(v).unwrap().to_vec()),
        };
        assert_eq!(ans.as_ref().unwrap(), &want, "{q}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Serving stays correct across awkward shard geometries: one giant
/// shard, more shards than left-factor rows (empty shards), and
/// single-row shards.
#[test]
fn shard_geometry_does_not_change_answers() {
    let a = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
    let b = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
    let c = KronProduct::new(a, b);
    for shards in [1usize, 2, 3, 9] {
        let dir = tmpdir(&format!("geometry_{shards}"));
        let engine = served(&dir, &c, shards);
        for v in 0..c.num_vertices() {
            assert_eq!(engine.degree(v).unwrap(), c.degree(v));
            assert_eq!(
                engine.vertex_triangles(v).unwrap(),
                c.vertex_triangles(v),
                "t_C({v}) with {shards} shards"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every answer source agrees with the closed form on a healthy run, and
/// `run_batch` reports a clean cross-check (the acceptance criterion:
/// zero mismatches over a freshly generated run directory).
#[test]
fn fresh_run_directory_cross_checks_clean() {
    use kron_serve::{AnswerSource, OpenOptions};
    let a = holme_kim(14, 2, 0.5, 11);
    let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 0)]);
    let c = KronProduct::new(a, b);
    let dir = tmpdir("cross_check_clean");
    {
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 5;
        stream_product(&c, &cfg).unwrap();
    }
    let engine = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            source: AnswerSource::CrossCheck,
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let mut queries = Vec::new();
    for v in 0..c.num_vertices() {
        queries.push(Query::Degree(v));
        queries.push(Query::Neighbors(v));
        queries.push(Query::VertexTriangles(v));
        queries.push(Query::HasEdge(v, (v * 7 + 1) % c.num_vertices()));
        queries.push(Query::EdgeTriangles(v, (v * 5 + 2) % c.num_vertices()));
    }
    let out = run_batch(&engine, &queries);
    assert_eq!(out.stats.errors, 0);
    assert_eq!(out.stats.mismatches, 0, "fresh run must reconcile clean");
    assert_eq!(engine.mismatch_count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The product both cross-check tamper tests stream and corrupt.
fn tamper_product() -> KronProduct {
    let a = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)]);
    let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0)]);
    KronProduct::new(a, b)
}

/// Stream `c` into two v1 shards under `dir`, then rewrite the last
/// column of one row `r` of shard 0 from `c_old` to `c_new`; returns
/// `(r, c_old, c_new)`.
fn tamper_one_row(dir: &std::path::Path, c: &KronProduct) -> (u64, u64, u64) {
    let mut cfg = StreamConfig::new(dir, OutputFormat::Csr);
    cfg.shards = 2;
    stream_product(c, &cfg).unwrap();
    let n_c = c.num_vertices();

    // Locate, inside shard 0's artifact, a row r whose *last* column can
    // be rewritten to n_C−1 while keeping the row sorted and the tamper
    // analyzable: the old value is a real non-loop neighbor, and neither
    // it nor the new value equals r (degree must stay put), and {r, n_C−1}
    // is not a real edge (so the tampered artifact now asserts an edge the
    // closed form denies).
    let m = kron_stream::load_manifest(dir, 0).unwrap();
    let path = dir.join(m.file.as_deref().unwrap());
    let mut bytes = std::fs::read(&path).unwrap();
    let rows = (m.vertices.end - m.vertices.start) as usize;
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let off_base = 32usize;
    let col_base = off_base + 8 * (rows + 1);
    let mut target = None;
    for i in 0..rows {
        let (lo, hi) = (
            word(&bytes, off_base + 8 * i),
            word(&bytes, off_base + 8 * (i + 1)),
        );
        if lo == hi {
            continue; // empty row
        }
        let r = m.vertices.start + i as u64;
        let c_old = word(&bytes, col_base + 8 * (hi as usize - 1));
        let c_new = n_c - 1;
        if c_old != r && c_old < c_new && r != c_new && !c.has_edge(r, c_new) {
            target = Some((r, c_old, c_new, col_base + 8 * (hi as usize - 1)));
            break;
        }
    }
    let (r, c_old, c_new, at) = target.expect("a tamperable row exists in shard 0");
    bytes[at..at + 8].copy_from_slice(&c_new.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    (r, c_old, c_new)
}

/// Tamper with one CSR row payload and cross-check must flag *exactly*
/// the affected queries — no false negatives (silent garbage) and no
/// false positives on untouched rows.
#[test]
fn cross_check_flags_exactly_the_tampered_queries() {
    use kron_serve::{AnswerSource, OpenOptions};
    use std::collections::BTreeSet;

    let c = tamper_product();
    let dir = tmpdir("cross_check_tamper");
    let (r, c_old, c_new) = tamper_one_row(&dir, &c);
    let n_c = c.num_vertices();

    // Structural opens (checksum verification would reject the file
    // before any query — that path is already tested).
    let opts = |source| OpenOptions {
        verify_checksums: false,
        source,
        ..OpenOptions::default()
    };
    let artifact = ServeEngine::open_with(&dir, &opts(AnswerSource::Artifact)).unwrap();
    let cross_check = ServeEngine::open_with(&dir, &opts(AnswerSource::CrossCheck)).unwrap();

    // The full per-vertex query grid, the two targeted edge probes, and
    // `tri_edge` from r to each of its closed-form neighbours and to c_new.
    let mut queries = Vec::new();
    for v in 0..n_c {
        queries.push(Query::Degree(v));
        queries.push(Query::Neighbors(v));
        queries.push(Query::VertexTriangles(v));
    }
    queries.push(Query::HasEdge(r, c_old));
    queries.push(Query::HasEdge(r, c_new));
    for u in c.neighbors(r).into_iter().chain([c_new]) {
        queries.push(Query::EdgeTriangles(r, u));
    }

    // Expected mismatch set, computed independently: every query where
    // the (tampered) artifact engine and the closed form disagree.
    let mut expected = BTreeSet::new();
    for q in &queries {
        let differs = match *q {
            Query::Degree(v) => artifact.degree(v).unwrap() != c.degree(v),
            Query::Neighbors(v) => artifact.neighbors(v).unwrap().as_ref() != c.neighbors(v),
            Query::VertexTriangles(v) => match artifact.vertex_triangles(v) {
                Ok(t) => t != c.vertex_triangles(v),
                Err(_) => true,
            },
            Query::HasEdge(u, v) => artifact.has_edge(u, v).unwrap() != c.has_edge(u, v),
            Query::EdgeTriangles(u, v) => match artifact.edge_triangles(u, v) {
                Ok(d) => d != c.edge_triangles(u, v),
                Err(_) => true,
            },
        };
        if differs {
            expected.insert(q.to_string());
        }
    }
    // The tamper is visible exactly where it should be…
    assert!(expected.contains(&format!("neighbors {r}")), "{expected:?}");
    assert!(expected.contains(&format!("has_edge {r} {c_old}")));
    assert!(expected.contains(&format!("has_edge {r} {c_new}")));
    // …and invisible where it must be: length-preserving tamper on a
    // non-loop slot keeps r's degree, and other rows are untouched.
    assert!(!expected.contains(&format!("degree {r}")));
    for v in 0..n_c {
        if v != r {
            assert!(!expected.contains(&format!("neighbors {v}")));
        }
    }

    let out = run_batch(&cross_check, &queries);
    assert_eq!(
        out.stats.mismatches as usize,
        expected.len(),
        "cross-check must flag exactly the affected queries"
    );
    let flagged: BTreeSet<String> = cross_check
        .mismatches()
        .into_iter()
        .map(|m| m.query)
        .collect();
    assert_eq!(flagged, expected, "flagged set must equal the affected set");
    assert!(expected.contains(&format!("tri_edge {r} {c_old}")));
    assert!(expected.contains(&format!("tri_edge {r} {c_new}")));

    for m in cross_check.mismatches() {
        let q = *queries.iter().find(|q| q.to_string() == m.query).unwrap();
        assert_eq!(m, expected_record(&artifact, &c, q));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The record cross-check logs for `q`, computed independently: the
/// answer of the `artifact`-source engine and the closed form of `c`,
/// each as the log renders it — a scalar bare (`not-an-edge` for a
/// non-edge, `error: …` for an error), a row as its length and the
/// first position where the two rows differ.
fn expected_record(artifact: &ServeEngine, c: &KronProduct, q: Query) -> kron_serve::Mismatch {
    let err = |e: kron_serve::ServeError| format!("error: {e}");
    let edge = |d: Option<u64>| d.map_or("not-an-edge".to_string(), |d| d.to_string());
    let (artifact, oracle) = match q {
        Query::Degree(v) => (
            artifact.degree(v).map_or_else(err, |d| d.to_string()),
            c.degree(v).to_string(),
        ),
        Query::Neighbors(v) => {
            let (a, o) = (artifact.neighbors(v).unwrap().into_owned(), c.neighbors(v));
            let at = a.iter().zip(&o).position(|(x, y)| x != y);
            let at = at.unwrap_or(a.len().min(o.len()));
            let digest = |r: &[u64]| {
                let x = r.get(at).map_or("<end>".to_string(), u64::to_string);
                format!("[{} entries] ..[{at}] = {x}", r.len())
            };
            (digest(&a), digest(&o))
        }
        Query::VertexTriangles(v) => (
            artifact
                .vertex_triangles(v)
                .map_or_else(err, |t| t.to_string()),
            c.vertex_triangles(v).to_string(),
        ),
        Query::HasEdge(u, v) => (
            artifact.has_edge(u, v).map_or_else(err, |b| b.to_string()),
            c.has_edge(u, v).to_string(),
        ),
        Query::EdgeTriangles(u, v) => (
            artifact.edge_triangles(u, v).map_or_else(err, edge),
            edge(c.edge_triangles(u, v)),
        ),
    };
    kron_serve::Mismatch {
        query: q.to_string(),
        artifact,
        oracle,
    }
}

/// Run `queries` through `engine` on a pool of two worker threads.
fn run_batch_on_two_threads(engine: &ServeEngine, queries: &[Query]) -> kron_serve::BatchOutcome {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let out = pool.install(|| run_batch(engine, queries));
    assert_eq!(out.stats.threads, 2, "a cross-checked batch fans out");
    out
}

/// A cross-checked batch fans out like any other, and its log keeps its
/// records ascending, so every run of the same batch at two threads logs
/// the same disagreements in log order: exactly the queries the tamper
/// changes, sorted, duplicates included.
#[test]
fn cross_checked_batches_check_the_same_queries_in_log_order() {
    use kron_serve::{AnswerSource, OpenOptions};

    let c = tamper_product();
    let dir = tmpdir("cross_check_order");
    let (r, c_old, c_new) = tamper_one_row(&dir, &c);
    // four kinds the tamper changes, and r's degree, which the
    // length-preserving tamper keeps: the log must skip that one
    let kinds = [
        Query::Neighbors(r),
        Query::HasEdge(r, c_new),
        Query::Degree(r),
        Query::HasEdge(r, c_old),
        Query::EdgeTriangles(r, c_new),
    ];
    let queries: Vec<Query> = (0..40).map(|i| kinds[i % kinds.len()]).collect();
    let mut tampered: Vec<String> = queries
        .iter()
        .filter(|q| !matches!(q, Query::Degree(_)))
        .map(Query::to_string)
        .collect();
    tampered.sort();

    let opts = OpenOptions {
        verify_checksums: false,
        source: AnswerSource::CrossCheck,
        ..OpenOptions::default()
    };
    let mut logs = Vec::new();
    for _ in 0..2 {
        let engine = ServeEngine::open_with(&dir, &opts).unwrap();
        let out = run_batch_on_two_threads(&engine, &queries);
        assert_eq!(out.stats.mismatches as usize, tampered.len());
        assert_eq!(engine.checked() as usize, queries.len());
        let log = engine.mismatches();
        let flagged: Vec<String> = log.iter().map(|m| m.query.clone()).collect();
        assert_eq!(
            flagged, tampered,
            "the log names the tampered queries in ascending order"
        );
        logs.push(log);
    }
    assert_eq!(
        logs[0], logs[1],
        "two runs of one batch log the same records"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Past the log's 64 records the counter still counts every
/// disagreement, and the log keeps the 64 least of them, whichever
/// worker thread reached the engine first.
#[test]
fn a_full_mismatch_log_keeps_the_least_records_at_two_threads() {
    use kron_serve::{AnswerSource, OpenOptions};

    let c = tamper_product();
    let dir = tmpdir("cross_check_full_log");
    let (r, c_old, c_new) = tamper_one_row(&dir, &c);
    // five kinds the tamper changes, and r's degree, which it keeps
    let kinds = [
        Query::EdgeTriangles(r, c_old),
        Query::Neighbors(r),
        Query::HasEdge(r, c_new),
        Query::Degree(r),
        Query::HasEdge(r, c_old),
        Query::EdgeTriangles(r, c_new),
    ];
    let queries: Vec<Query> = (0..180).map(|i| kinds[i % kinds.len()]).collect();

    let opts = |source| OpenOptions {
        verify_checksums: false,
        source,
        ..OpenOptions::default()
    };
    let artifact = ServeEngine::open_with(&dir, &opts(AnswerSource::Artifact)).unwrap();
    let mut expected: Vec<_> = queries
        .iter()
        .filter(|q| !matches!(q, Query::Degree(_)))
        .map(|&q| expected_record(&artifact, &c, q))
        .collect();
    assert_eq!(expected.len(), 150);
    assert!(expected.iter().all(|m| m.artifact != m.oracle));
    expected.sort();
    expected.truncate(64);

    let mut logs = Vec::new();
    for _ in 0..2 {
        let engine = ServeEngine::open_with(&dir, &opts(AnswerSource::CrossCheck)).unwrap();
        let out = run_batch_on_two_threads(&engine, &queries);
        assert_eq!(out.stats.mismatches, 150);
        assert_eq!(engine.mismatch_count(), 150, "the counter counts every one");
        let log = engine.mismatches();
        assert_eq!(log, expected, "the 64 least records, ascending");
        logs.push(log);
    }
    assert_eq!(logs[0], logs[1]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A csr2 row whose stream bytes do not decode — a zero gap, or a varint
/// cut at the row boundary — is corruption the structural open cannot
/// see. Every reader of that row must then fail with a corrupt-artifact
/// error: no panic, and never an answer computed from the decodable
/// prefix.
#[test]
fn undecodable_csr2_row_fails_every_reader_and_answers_none() {
    use kron_analyze::{run_kernel, AnalyzeError, Kernel, KernelSpec};
    use kron_serve::{OpenOptions, PathFinder, ServeError};
    use kron_stream::{verify_shards, ShardSet, StreamError};
    use std::sync::atomic::AtomicBool;

    let a = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)]);
    let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0)]);
    let c = KronProduct::new(a, b);
    let dir = tmpdir("csr2_undecodable");
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr2);
    cfg.shards = 2;
    stream_product(&c, &cfg).unwrap();

    // The victim: the first row of shard 0 with at least two columns.
    // Every id of this product fits one varint byte, so the row's stream
    // bytes are its columns' gaps, one byte each.
    let m = kron_stream::load_manifest(&dir, 0).unwrap();
    let path = dir.join(m.file.as_deref().unwrap());
    let good = std::fs::read(&path).unwrap();
    let rows = (m.vertices.end - m.vertices.start) as usize;
    let offset =
        |i: usize| u64::from_le_bytes(good[32 + 8 * i..40 + 8 * i].try_into().unwrap()) as usize;
    let stream0 = 32 + 8 * (rows + 1);
    let i = (0..rows).find(|&i| offset(i + 1) - offset(i) >= 2).unwrap();
    let r = m.vertices.start + i as u64;
    let (lo, hi) = (stream0 + offset(i), stream0 + offset(i + 1));
    assert!(good[lo..hi].iter().all(|&byte| byte < 0x80));
    let w = *c.neighbors(r).iter().find(|&&w| w != r).unwrap();
    let far = (0..c.num_vertices())
        .find(|&v| v != r && !c.has_edge(r, v))
        .unwrap();

    let corrupt = |res: Result<String, ServeError>, what: &str| match res {
        Err(ServeError::Corrupt(msg)) => {
            assert!(msg.contains(&format!("row {r}")), "{what}: {msg}")
        }
        other => panic!("{what}: expected a corrupt-artifact error, got {other:?}"),
    };
    for (what, at, byte) in [
        ("zero gap", lo + 1, 0x00),
        (
            "varint cut at the row boundary",
            hi - 1,
            good[hi - 1] | 0x80,
        ),
    ] {
        let mut bad = good.clone();
        bad[at] = byte;
        std::fs::write(&path, &bad).unwrap();

        for cache in [0, 1 << 20] {
            let e = ServeEngine::open_with(
                &dir,
                &OpenOptions {
                    verify_checksums: false,
                    row_cache_bytes: cache,
                    ..OpenOptions::default()
                },
            )
            .expect("the structural open cannot see a stream byte");
            corrupt(e.degree(r).map(|d| d.to_string()), what);
            corrupt(e.neighbors(r).map(|row| format!("{row:?}")), what);
            corrupt(e.vertex_triangles(r).map(|t| t.to_string()), what);
            corrupt(e.has_edge(r, w).map(|x| x.to_string()), what);
            // …and as a *neighbor's* row, fetched for an intersection
            corrupt(e.vertex_triangles(w).map(|t| t.to_string()), what);
            corrupt(e.edge_triangles(w, r).map(|d| format!("{d:?}")), what);
            // /path and /khop expand r's row first
            let finder = PathFinder::new(&e);
            corrupt(
                finder
                    .shortest_path(r, far, None)
                    .map(|p| p.to_json().to_string()),
                what,
            );
            corrupt(finder.khop(r, 2).map(|k| k.to_json().to_string()), what);
            // untouched rows still answer
            assert_eq!(e.degree(w).unwrap(), c.degree(w), "{what}");
        }

        // `kron analyze`: every kernel reads every row (BFS starts at r)
        let set = ShardSet::open(&dir).unwrap();
        let idle = AtomicBool::new(false);
        for kernel in [Kernel::Bfs, Kernel::Cc, Kernel::Pagerank, Kernel::TriCensus] {
            let mut spec = KernelSpec::new(kernel);
            spec.source = r;
            match run_kernel(&set, &spec, &idle) {
                Err(AnalyzeError::Corrupt(msg)) => {
                    assert!(msg.contains(&r.to_string()), "{what}: {msg}")
                }
                other => panic!("{what}: {kernel:?} must fail as corrupt, got {other:?}"),
            }
        }

        // the validating paths report the shard and the row; none panics
        for err in [
            verify_shards(&dir, false).unwrap_err(),
            ShardSet::open_verified(&dir).unwrap_err(),
        ] {
            assert!(matches!(err, StreamError::Shard(0, _)), "{what}: {err}");
            assert!(
                err.to_string()
                    .contains(&format!("row {r} does not decode")),
                "{what}: {err}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The factor copies are the ground truth everything is validated
/// against, so there is one loader and one verdict: whichever entry
/// point meets a bad copy — a shard-set open (which every engine,
/// `tri-census` run and server job goes through), the serving engine,
/// `verify-shards` — refuses it at load, with the loader's own words.
#[test]
fn bad_factor_copies_are_refused_identically_by_every_loader() {
    use kron_graph::write_edge_list_path;
    use kron_serve::{AnswerSource, OpenOptions};
    use kron_stream::{load_factors, verify_shards, RunSummary, ShardSet};

    let edges_a = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)];
    let a = Graph::from_edges(6, edges_a);
    let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0)]);
    let c = KronProduct::new(a.clone(), b);
    // same n, same nnz as A, but the triangle 0-1-2 opened into a 4-cycle
    let rewired = Graph::from_edges(6, [(0, 1), (1, 2), (0, 3), (2, 3), (3, 4), (4, 4), (5, 5)]);
    assert_eq!((rewired.num_vertices(), rewired.nnz()), (6, a.nnz()));

    type Damage = fn(&std::path::Path, &Graph);
    let table: [(&str, Damage, &str); 4] = [
        (
            "swapped A/B copies",
            |dir, _| {
                let (fa, fb, tmp) = (
                    dir.join("factor_a.tsv"),
                    dir.join("factor_b.tsv"),
                    dir.join("swap.tmp"),
                );
                std::fs::rename(&fa, &tmp).unwrap();
                std::fs::rename(&fb, &fa).unwrap();
                std::fs::rename(&tmp, &fb).unwrap();
            },
            "factor copy factor_a.tsv: vertex count is 4, run.json says 6",
        ),
        (
            "truncated copy",
            |dir, _| {
                let path = dir.join("factor_b.tsv");
                let text = std::fs::read_to_string(&path).unwrap();
                let keep: Vec<&str> = text.lines().take(3).collect();
                std::fs::write(&path, keep.join("\n") + "\n").unwrap();
            },
            "factor copy factor_b.tsv: adjacency nnz is",
        ),
        (
            "one edge removed, n kept",
            |dir, _| {
                let fewer = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 4), (5, 5)]);
                write_edge_list_path(&fewer, dir.join("factor_a.tsv")).unwrap();
            },
            "factor copy factor_a.tsv: adjacency nnz is 10, run.json says 12",
        ),
        (
            "same n and nnz, different triangles",
            |dir, rewired| write_edge_list_path(rewired, dir.join("factor_a.tsv")).unwrap(),
            "factor copies factor_a.tsv ⊗ factor_b.tsv: closed-form triangle sum is",
        ),
    ];
    for (what, damage, fragment) in table {
        let dir = tmpdir("bad_factors");
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 2;
        stream_product(&c, &cfg).unwrap();
        damage(&dir, &rewired);

        let run = RunSummary::load(&dir).unwrap();
        let verdict = load_factors(&dir, &run).unwrap_err().to_string();
        assert!(verdict.contains(fragment), "{what}: {verdict}");

        let oracle = ServeEngine::open_with(
            &dir,
            &OpenOptions {
                source: AnswerSource::Oracle,
                ..OpenOptions::default()
            },
        )
        .unwrap_err()
        .to_string();
        // the shards themselves are intact: the open refuses the factors
        let open = ShardSet::open_verified(&dir).unwrap_err().to_string();
        let verify = verify_shards(&dir, false).unwrap_err().to_string();
        for (entry, err) in [("oracle", oracle), ("open", open), ("verify", verify)] {
            assert!(err.contains(&verdict), "{what} via {entry}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Large-scale acceptance (tier 2, release only): a ~50M-entry web-like
/// product served from disk — all three answer sources agree on a large
/// random + skewed query sample, cross-check reconciles clean, and the
/// hot-row LRU absorbs the skewed load.
#[test]
#[ignore = "streams a ~5e7-entry product to disk; run in release"]
fn large_scale_serving_sources_and_cache() {
    use kron_serve::{AnswerSource, OpenOptions};

    let a = holme_kim(1200, 3, 0.75, 2018);
    let c = KronProduct::new(a.clone(), a);
    assert!(c.nnz() > 10_000_000, "product must be large: {}", c.nnz());
    let dir = tmpdir("large_scale");
    {
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 8;
        stream_product(&c, &cfg).unwrap();
    }
    let open = |source, row_cache_bytes| {
        ServeEngine::open_with(
            &dir,
            &OpenOptions {
                verify_checksums: false,
                source,
                row_cache_bytes,
                ..OpenOptions::default()
            },
        )
        .unwrap()
    };
    let artifact = open(AnswerSource::Artifact, 32 << 20);
    let oracle = open(AnswerSource::Oracle, 0);
    let cross_check = open(AnswerSource::CrossCheck, 0);

    // a skewed query mix: 95% of triangle queries hit 64 hot vertices
    let n = c.num_vertices();
    let mut state = 0x2018_u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let hot: Vec<u64> = (0..64).map(|_| rng() % n).collect();
    let mut queries = Vec::new();
    for i in 0..30_000u64 {
        let v = if i % 20 != 19 {
            hot[(rng() % 64) as usize]
        } else {
            rng() % n
        };
        match i % 4 {
            0 => queries.push(Query::Degree(v)),
            1 => queries.push(Query::VertexTriangles(v)),
            2 => queries.push(Query::HasEdge(v, rng() % n)),
            _ => queries.push(Query::EdgeTriangles(v, rng() % n)),
        }
    }

    let art_out = run_batch(&artifact, &queries);
    let ora_out = run_batch(&oracle, &queries);
    assert_eq!(art_out.stats.errors, 0);
    assert_eq!(ora_out.stats.errors, 0);
    for (i, (x, y)) in art_out.answers.iter().zip(&ora_out.answers).enumerate() {
        assert_eq!(
            x.as_ref().unwrap(),
            y.as_ref().unwrap(),
            "answer {i} ({})",
            queries[i]
        );
    }
    let report = artifact.routing();
    assert!(
        report.hit_rate() > 0.5,
        "skewed load must mostly hit the row cache: {report}"
    );

    // cross-check a sample end to end: fresh artifacts reconcile clean
    let sample: Vec<Query> = queries.iter().step_by(10).copied().collect();
    let out = run_batch(&cross_check, &sample);
    assert_eq!(out.stats.errors, 0);
    assert_eq!(out.stats.mismatches, 0, "fresh run must cross-check clean");
    std::fs::remove_dir_all(&dir).ok();
}

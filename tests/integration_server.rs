//! End-to-end socket tests of the HTTP serving layer: a real
//! `TcpListener`, real HTTP/1.1 over loopback, concurrent clients, and
//! the cross-check audit path — everything `kron serve --listen`
//! does, exercised in-process so the tests can also inspect the engine.

use kron::KronProduct;
use kron_graph::Graph;
use kron_serve::http::{encode_query_component, Client};
use kron_serve::{run_batch, AnswerSource, OpenOptions, Query, ServeEngine, Server, ServerOptions};
use kron_stream::json::Json;
use kron_stream::{stream_product, OutputFormat, StreamConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kron_int_server_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A loopy product big enough that queries route across several shards.
fn product() -> KronProduct {
    let a = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)]);
    let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0)]);
    KronProduct::new(a, b)
}

fn make_run_dir(dir: &std::path::Path, c: &KronProduct, shards: usize) {
    let mut cfg = StreamConfig::new(dir, OutputFormat::Csr);
    cfg.shards = shards;
    stream_product(c, &cfg).unwrap();
}

/// A query mix touching every query kind and every shard.
fn mixed_queries(c: &KronProduct) -> Vec<Query> {
    let n = c.num_vertices();
    let mut qs = Vec::new();
    for v in 0..n {
        qs.push(Query::Degree(v));
        qs.push(Query::Neighbors(v));
        qs.push(Query::VertexTriangles(v));
        qs.push(Query::HasEdge(v, (v * 7 + 1) % n));
        qs.push(Query::EdgeTriangles(v, (v + 1) % n));
    }
    qs
}

/// The exact line `POST /batch` emits for one query, derived from a
/// single-threaded `run_batch` ground truth on a separate engine.
fn reference_lines(dir: &std::path::Path, queries: &[Query]) -> Vec<String> {
    let reference = ServeEngine::open_verified(dir).unwrap();
    let out = run_batch(&reference, queries);
    queries
        .iter()
        .zip(&out.answers)
        .map(|(q, a)| match a {
            Ok(a) => format!("{q} = {a}"),
            Err(e) => format!("{q} = error: {e}"),
        })
        .collect()
}

#[test]
fn concurrent_clients_match_single_threaded_run_batch() {
    let dir = tmpdir("concurrent");
    let c = product();
    make_run_dir(&dir, &c, 3);
    let engine = ServeEngine::open_verified(&dir).unwrap();
    let queries = mixed_queries(&c);
    let expected = reference_lines(&dir, &queries);

    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    const CLIENTS: usize = 6;
    let report = std::thread::scope(|s| {
        let run = s.spawn(|| {
            server.run(
                &engine,
                &ServerOptions {
                    threads: 8,
                    ..Default::default()
                },
                &stop,
            )
        });
        let workers: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let queries = &queries;
                let expected = &expected;
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    // each client walks the mix from its own skewed offset,
                    // one GET per query, asserting against ground truth
                    for i in 0..queries.len() {
                        let j = (i * (k + 1) + k) % queries.len();
                        let path = format!(
                            "/query?q={}",
                            encode_query_component(&queries[j].to_string())
                        );
                        let (status, body) = client.get(&path).unwrap();
                        assert_eq!(status, 200, "{}: {body}", queries[j]);
                        assert_eq!(
                            format!("{} = {}", queries[j], body.trim_end_matches('\n')),
                            expected[j]
                        );
                    }
                    // …and one batch with the whole mix, byte-identical
                    let file: String = queries.iter().map(|q| format!("{q}\n")).collect();
                    let (status, body) = client.post("/batch", file.as_bytes()).unwrap();
                    assert_eq!(status, 200);
                    let got: Vec<&str> = body.lines().collect();
                    assert_eq!(got.len(), expected.len());
                    for (g, e) in got.iter().zip(expected) {
                        assert_eq!(g, e);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        // counters are race-free: every client's queries are accounted for
        let mut client = Client::connect(addr).unwrap();
        let (status, body) = client.get("/stats").unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        let total = (CLIENTS * 2 * queries.len()) as u64; // GETs + batch lines
        assert_eq!(doc.req("queries").unwrap().as_u64(), Some(total));
        assert_eq!(doc.req("errors").unwrap().as_u64(), Some(0));
        assert_eq!(doc.req("bad_requests").unwrap().as_u64(), Some(0));
        assert_eq!(doc.req("mismatch_count").unwrap().as_u64(), Some(0));
        let recent = doc.req("recent").unwrap();
        assert!(recent.req("queries").unwrap().as_u64().unwrap() > 0);

        stop.store(true, Ordering::SeqCst);
        run.join().unwrap().unwrap()
    });
    assert_eq!(report.queries, (CLIENTS * 2 * queries.len()) as u64);
    assert_eq!(report.query_errors, 0);
    assert_eq!(report.mismatches, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cross_check_checks_every_query_through_the_server() {
    let dir = tmpdir("checking");
    let c = product();
    make_run_dir(&dir, &c, 2);
    let engine = ServeEngine::open_with(
        &dir,
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
        let run = s.spawn(|| {
            server.run(
                &engine,
                &ServerOptions {
                    threads: 2,
                    ..Default::default()
                },
                &stop,
            )
        });
        let mut client = Client::connect(addr).unwrap();
        let queries = mixed_queries(&c);
        let file: String = queries.iter().map(|q| format!("{q}\n")).collect();
        let (status, body) = client.post("/batch", file.as_bytes()).unwrap();
        assert_eq!(status, 200);
        // checking must never change an answer: the audited server's
        // output is byte-identical to plain artifact batch mode
        let expected = reference_lines(&dir, &queries);
        assert_eq!(
            body.lines().collect::<Vec<_>>(),
            expected.iter().map(String::as_str).collect::<Vec<_>>(),
            "cross-check answers diverge from artifact batch mode"
        );
        let (_, body) = client.get("/stats").unwrap();
        let doc = Json::parse(&body).unwrap();
        let q = queries.len() as u64;
        assert_eq!(doc.req("queries").unwrap().as_u64(), Some(q));
        assert_eq!(
            doc.req("checked").unwrap().as_u64(),
            Some(q),
            "every one of {q} queries is checked"
        );
        assert_eq!(doc.req("source").unwrap().as_str(), Some("cross-check"));
        assert_eq!(doc.req("mismatch_count").unwrap().as_u64(), Some(0));
        stop.store(true, Ordering::SeqCst);
        let report = run.join().unwrap().unwrap();
        assert_eq!(report.checked, q);
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_run_dir_surfaces_mismatches_through_stats() {
    let dir = tmpdir("tamper");
    let c = product();
    make_run_dir(&dir, &c, 2);
    // flip a column id in shard 0's payload, like a bit-rotted artifact
    let m = kron_stream::load_manifest(&dir, 0).unwrap();
    let path = dir.join(m.file.as_deref().unwrap());
    let mut bytes = std::fs::read(&path).unwrap();
    let rows = (m.vertices.end - m.vertices.start) as usize;
    bytes[32 + 8 * (rows + 1)] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();

    // structural open (an audit tier skips per-open rehashing — that is
    // exactly the corruption it exists to catch), every answer checked
    let engine = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            verify_checksums: false,
            source: AnswerSource::CrossCheck,
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let victim = (m.vertices.start..m.vertices.end)
        .find(|&v| !c.neighbors(v).is_empty())
        .unwrap();

    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|s| {
        let run = s.spawn(|| {
            server.run(
                &engine,
                &ServerOptions {
                    threads: 1,
                    ..Default::default()
                },
                &stop,
            )
        });
        let mut client = Client::connect(addr).unwrap();
        let path = format!(
            "/query?q={}",
            encode_query_component(&format!("neighbors {victim}"))
        );
        let (status, _) = client.get(&path).unwrap();
        assert_eq!(status, 200, "tampered answers still serve (artifact wins)");
        let (_, body) = client.get("/stats").unwrap();
        let doc = Json::parse(&body).unwrap();
        assert!(doc.req("mismatch_count").unwrap().as_u64().unwrap() > 0);
        let log = doc.req("mismatches").unwrap().as_arr().unwrap();
        assert!(!log.is_empty());
        assert_eq!(
            log[0].req("query").unwrap().as_str(),
            Some(format!("neighbors {victim}").as_str())
        );
        assert!(log[0].req("artifact").unwrap().as_str().is_some());
        assert!(log[0].req("oracle").unwrap().as_str().is_some());
        stop.store(true, Ordering::SeqCst);
        run.join().unwrap().unwrap()
    });
    // the report the CLI turns into a nonzero exit code
    assert!(report.mismatches > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn keep_alive_close_and_pipelining_behave() {
    let dir = tmpdir("keepalive");
    let c = product();
    make_run_dir(&dir, &c, 2);
    let engine = ServeEngine::open_verified(&dir).unwrap();
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| {
            server.run(
                &engine,
                &ServerOptions {
                    threads: 2,
                    ..Default::default()
                },
                &stop,
            )
        });
        // many requests over one connection (keep-alive)
        let mut client = Client::connect(addr).unwrap();
        for _ in 0..20 {
            let (status, body) = client.get("/query?q=degree+0").unwrap();
            assert_eq!(status, 200);
            assert_eq!(body.trim().parse::<u64>().unwrap(), c.degree(0));
        }
        drop(client); // free the connection slot
                      // Connection: close is honored — the server answers then closes
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut all = String::new();
        raw.read_to_string(&mut all).unwrap(); // EOF ⇒ server closed
        assert!(all.starts_with("HTTP/1.1 200"), "{all}");
        assert!(all.ends_with("ok\n"), "{all}");
        stop.store(true, Ordering::SeqCst);
        run.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

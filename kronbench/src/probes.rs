//! The per-layer probe suite of the traced run: each layer timed from
//! outside, through the public functions the rest of the repository
//! calls, on one small fixed-size rig (`web(probe_n) ⊗ web(probe_n)`,
//! both shard formats, one server, one two-node cluster).
//!
//! The probes run after the traced workload and are the same whatever
//! workload that was, so a layer's number can be followed across PRs
//! from any traced run. Everything is kept short (about ten seconds in
//! all): the probes are for attribution, the workloads for claims.

use crate::inputs::{
    get_wire, hot_vertices, lane_rng, point_mix, post_wire, tri_hot_mix, web_product, Req,
};
use crate::proc;
use crate::rig::{
    bind, stream_run, Cluster, Control, JobDriver, LoadConn, Node, Pinned, WorkDir, JOB_PASSES,
    JOB_SPEC,
};
use crate::stats::{median, percentile_sorted};
use crate::workloads::analyze::fixed_pagerank;
use crate::workloads::serving::POINT_WEIGHTS;
use crate::workloads::Sizes;
use kron::KronProduct;
use kron_analyze::{run_kernel, Kernel, KernelSpec};
use kron_serve::http::{percent_decode, write_response, RequestBuffer};
use kron_serve::{
    run_batch, FactorOracle, OpenOptions, Query, RowCache, ServeEngine, ServerOptions,
};
use kron_stream::json::Json;
use kron_stream::{
    compact_run, decode_row_vd, encode_row_vd, run_shard, stream_product, verify_shards, CountSink,
    OutputFormat, ShardPlan, ShardSet, StreamConfig,
};
use kron_triangles::slice::intersect_excluding;
use rand::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Collected `(metric, value)` pairs.
pub type Readings = Vec<(&'static str, f64)>;

/// Wall seconds of `f`, its result's drop included.
fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// Median wall seconds of `reps` runs of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(&(0..reps).map(|_| secs(&mut f)).collect::<Vec<_>>())
}

/// Nanoseconds per item: `f` over `items` in chunks of 64, median of
/// the per-chunk means — a median that does not pay a clock read per
/// sub-microsecond call.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let per_chunk: Vec<f64> = items
        .chunks(64)
        .map(|chunk| {
            let t0 = Instant::now();
            chunk.iter().for_each(&mut f);
            t0.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect();
    median(&per_chunk)
}

fn p50_us(mut lat_ns: Vec<u64>) -> f64 {
    lat_ns.sort_unstable();
    percentile_sorted(&lat_ns, 50) as f64 / 1e3
}

/// Round-trip each request once; per-request nanoseconds. Any reply
/// but 200 is a broken rig.
fn round_trips(conn: &mut LoadConn, wires: &[Vec<u8>]) -> Vec<u64> {
    wires
        .iter()
        .map(|wire| {
            let t0 = Instant::now();
            let (status, _) = conn.round_trip(wire).expect("probe round trip");
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(wire));
            t0.elapsed().as_nanos() as u64
        })
        .collect()
}

fn query_wires(queries: &[Query]) -> Vec<Vec<u8>> {
    queries
        .iter()
        .map(|q| get_wire(&Req::Query(*q).target()))
        .collect()
}

/// Answer one query through the engine's public methods.
fn answer(engine: &ServeEngine, q: &Query) -> u64 {
    let bug = "probe queries are in range";
    match *q {
        Query::Degree(v) => engine.degree(v).expect(bug),
        Query::Neighbors(v) => engine.neighbors(v).expect(bug).len() as u64,
        Query::HasEdge(u, v) => u64::from(engine.has_edge(u, v).expect(bug)),
        Query::VertexTriangles(v) => engine.vertex_triangles_with_checks(v).expect(bug).0,
        Query::EdgeTriangles(u, v) => engine
            .edge_triangles_with_checks(u, v)
            .expect(bug)
            .map_or(0, |(delta, _)| delta),
    }
}

fn open(dir: &Path, opts: OpenOptions) -> ServeEngine {
    ServeEngine::open_with(dir, &opts).expect("open a probe engine")
}

fn unverified(row_cache_bytes: u64) -> OpenOptions {
    OpenOptions {
        verify_checksums: false,
        row_cache_bytes,
        ..OpenOptions::default()
    }
}

/// With `RAYON_NUM_THREADS` set to `threads` for the duration of `f`.
/// Only called while no server of this process is running.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var_os("RAYON_NUM_THREADS");
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let out = f();
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

fn core_probes(product: &KronProduct, shards: usize, rng: &mut StdRng, out: &mut Readings) {
    let nnz = product.nnz() as f64;
    let n_a = product.factors().0.num_vertices() as u32;
    let drain = median_secs(3, || {
        let mut acc = 0u64;
        for (p, q) in product.adjacency_entries_in_rows(0..n_a) {
            acc ^= p.wrapping_add(q);
        }
        black_box(acc);
    });
    out.push(("core.row_iter_ns_per_entry", drain * 1e9 / nnz));
    out.push((
        "core.plan_s",
        median_secs(5, || black_box(ShardPlan::new(product, shards))),
    ));
    let vertices: Vec<u64> = (0..50_000)
        .map(|_| rng.gen_range(0..product.num_vertices()))
        .collect();
    out.push((
        "core.closed_form_tri_ns",
        ns_per_item(&vertices, |&v| {
            black_box(product.vertex_triangles(v));
        }),
    ));
}

/// Stream-side probes; leaves a csr2 run in `csr2` and a v1 run in `v1`.
fn stream_probes(
    product: &KronProduct,
    shards: usize,
    work: &Path,
    csr2: &Path,
    v1: &Path,
    out: &mut Readings,
) {
    let nnz = product.nnz() as f64;
    let stream = |dir: &Path, format: OutputFormat, threads: usize| {
        let cfg = StreamConfig {
            shards,
            threads,
            ..StreamConfig::new(dir, format)
        };
        median_secs(3, || stream_product(product, &cfg).expect("probe stream"))
    };
    let count_s = stream(&work.join("count"), OutputFormat::Count, 0);
    let csr2_s = stream(csr2, OutputFormat::Csr2, 0);
    let csr2_one_thread_s = stream(csr2, OutputFormat::Csr2, 1);
    let v1_s = stream(v1, OutputFormat::Csr, 0);
    out.push(("stream.driver.count_entries_per_s", nnz / count_s));
    out.push((
        "stream.sink.csr2_ns_per_entry",
        (csr2_s - count_s) * 1e9 / nnz,
    ));
    out.push(("stream.driver.threads_speedup", csr2_one_thread_s / csr2_s));
    out.push(("stream.sink.csr_v1_entries_per_s", nnz / v1_s));

    // skew: every shard generated alone, one after the other
    let plan = ShardPlan::new(product, shards);
    let per_shard: Vec<f64> = plan
        .iter()
        .map(|spec| {
            secs(|| {
                let mut sink = CountSink::default();
                run_shard(product, spec, OutputFormat::Count, &mut sink).expect("probe shard");
            })
        })
        .collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
    out.push((
        "stream.driver.shard_skew",
        per_shard.iter().copied().fold(0.0, f64::max) / mean,
    ));

    out.push((
        "stream.verify.rehash_s",
        median_secs(3, || verify_shards(csr2, true).expect("probe verify")),
    ));
    out.push((
        "stream.open.verified_s",
        median_secs(5, || ShardSet::open_verified(csr2).expect("probe open")),
    ));
    out.push((
        "stream.open.unverified_s",
        median_secs(5, || ShardSet::open(csr2).expect("probe open")),
    ));

    let scratch = work.join("compact");
    let compact_s = median(
        &(0..2)
            .map(|_| {
                stream_run(product, &scratch, OutputFormat::Csr, shards);
                secs(|| compact_run(&scratch).expect("probe compact"))
            })
            .collect::<Vec<_>>(),
    );
    out.push(("stream.compact.entries_per_s", nnz / compact_s));
}

/// The varint row codec on rows sampled from the v1 run.
fn codec_probes(rows: &[Vec<u64>], out: &mut Readings) {
    let entries: usize = rows.iter().map(Vec::len).sum();
    let mut buf = Vec::new();
    let encode_s = median_secs(5, || {
        for row in rows {
            buf.clear();
            encode_row_vd(row, &mut buf);
            black_box(&buf);
        }
    });
    let encoded: Vec<Vec<u8>> = rows
        .iter()
        .map(|row| {
            let mut bytes = Vec::new();
            encode_row_vd(row, &mut bytes);
            bytes
        })
        .collect();
    let mut cols = Vec::new();
    let decode_s = median_secs(5, || {
        for bytes in &encoded {
            cols.clear();
            assert!(decode_row_vd(bytes, &mut cols));
            black_box(&cols);
        }
    });
    out.push((
        "stream.csr.encode_vd_ns_per_entry",
        encode_s * 1e9 / entries as f64,
    ));
    out.push((
        "stream.csr.decode_vd_ns_per_entry",
        decode_s * 1e9 / entries as f64,
    ));
}

/// The HTTP layer with no socket: parse, encode, query-line parse.
fn http_probes(out: &mut Readings) {
    let canned = get_wire("/query?q=degree%2012345");
    let rounds = vec![(); 100_000];
    let mut buf = RequestBuffer::new();
    out.push((
        "serve.http.parse_ns",
        ns_per_item(&rounds, |()| {
            buf.push(&canned);
            black_box(
                buf.next_request()
                    .expect("canned request parses")
                    .expect("complete"),
            );
        }),
    ));
    let mut wire = Vec::with_capacity(256);
    out.push((
        "serve.http.encode_ns",
        ns_per_item(&rounds, |()| {
            wire.clear();
            write_response(&mut wire, 200, "text/plain; charset=utf-8", b"12345\n")
                .expect("write to a Vec");
            black_box(&wire);
        }),
    ));
    out.push((
        "serve.http.query_parse_ns",
        ns_per_item(&rounds, |()| {
            let line = percent_decode(black_box("degree%2012345"), true).expect("canned escape");
            black_box(Query::parse(&line).expect("canned query"));
        }),
    ));
}

/// In-process engine, intersection kernel, batch driver, cache, oracle.
fn engine_probes(
    product: &KronProduct,
    csr2: &Path,
    v1: &Path,
    n: usize,
    rng: &mut StdRng,
    out: &mut Readings,
) {
    let engines = [
        (
            open(csr2, unverified(0)),
            [
                "serve.engine.degree_ns",
                "serve.engine.neighbors_ns",
                "serve.engine.has_edge_ns",
                "serve.engine.tri_edge_ns",
                "serve.engine.tri_vertex_ns",
            ],
        ),
        (
            open(v1, unverified(0)),
            [
                "serve.engine.degree_v1_ns",
                "serve.engine.neighbors_v1_ns",
                "serve.engine.has_edge_v1_ns",
                "serve.engine.tri_edge_v1_ns",
                "serve.engine.tri_vertex_v1_ns",
            ],
        ),
    ];
    let kinds: Vec<Vec<Query>> = (0..5)
        .map(|kind| {
            let mut weights = [0; 5];
            weights[kind] = 100;
            // triangle queries are microseconds each: fewer of them
            point_mix(product, rng, if kind >= 3 { n / 8 } else { n }, weights)
        })
        .collect();
    for (engine, names) in &engines {
        for (queries, name) in kinds.iter().zip(names) {
            out.push((
                name,
                ns_per_item(queries, |q| {
                    black_box(answer(engine, q));
                }),
            ));
        }
    }
    let (csr2_engine, v1_engine) = (&engines[0].0, &engines[1].0);
    let checks: u64 = kinds[4]
        .iter()
        .map(|q| match *q {
            Query::VertexTriangles(v) => {
                csr2_engine
                    .vertex_triangles_with_checks(v)
                    .expect("in range")
                    .1
            }
            _ => unreachable!("kind 4 is tri_vertex"),
        })
        .sum();
    out.push((
        "serve.engine.wedge_checks_per_tri_vertex",
        checks as f64 / kinds[4].len() as f64,
    ));

    // intersection kernel on (row of u, row of a neighbor of u) pairs
    let set = v1_engine.shard_set();
    let pairs: Vec<(Vec<u64>, Vec<u64>, u64, u64)> = kinds[3]
        .iter()
        .filter_map(|q| match *q {
            Query::EdgeTriangles(u, v) => Some((set.row(u)?.to_vec(), set.row(v)?.to_vec(), u, v)),
            _ => None,
        })
        .collect();
    let elems: usize = pairs.iter().map(|(a, b, ..)| a.len() + b.len()).sum();
    let intersect_s = median_secs(5, || {
        for (a, b, u, v) in &pairs {
            black_box(intersect_excluding(a, b, *u, *v));
        }
    });
    out.push((
        "triangles.intersect_ns_per_elem",
        intersect_s * 1e9 / elems as f64,
    ));

    // the tri_batch line stream in process: batch driver, then the
    // same stream with and without the hot-row cache
    let hot = tri_hot_mix(product, rng, n, &hot_vertices(product, 64), 0.9);
    let qps = |engine: &ServeEngine| {
        median(
            &(0..3)
                .map(|_| run_batch(engine, &hot).stats.qps())
                .collect::<Vec<_>>(),
        )
    };
    let uncached_qps = qps(v1_engine);
    out.push(("serve.batch.lines_per_s", uncached_qps));
    let cached = open(v1, unverified(4 << 20));
    out.push(("serve.cache.speedup_hot", qps(&cached) / uncached_qps));
    out.push(("serve.cache.hit_rate", cached.routing().hit_rate()));

    let rows: Vec<(u64, Arc<[u64]>)> = pairs
        .iter()
        .map(|(a, _, u, _)| (*u, Arc::from(&a[..])))
        .collect();
    let cache = RowCache::new(4 << 20);
    out.push((
        "serve.cache.insert_ns",
        ns_per_item(&rows, |(v, row)| cache.insert(*v, Arc::clone(row))),
    ));
    out.push((
        "serve.cache.get_ns",
        ns_per_item(&rows, |(v, _)| {
            black_box(cache.get(*v));
        }),
    ));

    let run = set.run().clone();
    out.push((
        "serve.oracle.load_s",
        median_secs(3, || FactorOracle::load(csr2, &run).expect("probe oracle")),
    ));
    let oracle = FactorOracle::load(csr2, &run).expect("probe oracle");
    out.push((
        "serve.oracle.tri_vertex_ns",
        ns_per_item(&kinds[4], |q| {
            let _ = black_box(oracle.vertex_triangles(q.routing_vertex()));
        }),
    ));
}

/// One server over the csr2 run: the floor, the event loop's share,
/// two connections, the `/row` endpoint, the job API.
fn server_probes(
    product: &KronProduct,
    csr2: &Path,
    n: usize,
    window: Duration,
    rng: &mut StdRng,
    out: &mut Readings,
) {
    let _pin = Pinned::to_current_cpu(); // as the serving workloads run
    let node = Node::start(
        bind(),
        open(csr2, OpenOptions::default()),
        ServerOptions::default(),
    );
    let mut conn = LoadConn::connect(node.addr).expect("connect the probe server");
    let healthz = vec![get_wire("/healthz"); n];
    round_trips(&mut conn, &healthz[..n / 4]); // warm the connection
    out.push((
        "serve.http.healthz_us_p50",
        p50_us(round_trips(&mut conn, &healthz)),
    ));

    // point_http's mix: what the client sees against what the handler
    // measured itself (`/stats` `recent.p50_us` is the last 4096 queries)
    let wires = query_wires(&point_mix(product, rng, n, POINT_WEIGHTS));
    let client_p50 = p50_us(round_trips(&mut conn, &wires));
    let mut control = Control::new(node.addr);
    let (_, stats) = control.get("/stats").expect("GET /stats");
    let handler_p50 = Json::parse(stats.trim())
        .ok()
        .and_then(|doc| doc.get("recent")?.get("p50_us")?.as_f64())
        .expect("/stats carries recent.p50_us");
    out.push(("serve.http.handler_us_p50", handler_p50));
    out.push(("serve.event_loop.overhead_us", client_p50 - handler_p50));

    // the same traffic from one connection per core
    let addr = node.addr;
    let answered: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..proc::cores().max(2))
            .map(|_| {
                s.spawn(|| {
                    let mut conn = LoadConn::connect(addr).expect("connect the probe server");
                    let until = Instant::now() + window;
                    let mut done = 0;
                    while Instant::now() < until {
                        done += round_trips(&mut conn, &wires[..64]).len();
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("probe connection"))
            .sum()
    });
    out.push((
        "serve.event_loop.qps_conns2",
        answered as f64 / window.as_secs_f64(),
    ));

    // the cluster's row fetch, asked for the way a peer asks
    let set = node.engine.shard_set();
    let rows: Vec<Vec<u8>> = (0..n / 4)
        .map(|_| {
            let v = rng.gen_range(0..set.num_vertices());
            let shard = set.route(v).expect("every vertex routes");
            get_wire(&format!("/row?shard={shard}&v={v}&enc=vd"))
        })
        .collect();
    out.push((
        "serve.cluster.row_fetch_us_p50",
        p50_us(round_trips(&mut conn, &rows)),
    ));

    // jobs: submission round trip on five one-hop BFS jobs, then the
    // throughput of one PageRank job with the server otherwise idle
    let mut submit_ns = Vec::new();
    let mut run_job = |spec: &[u8]| -> f64 {
        let t0 = Instant::now();
        let (status, body) = conn
            .round_trip(&post_wire("/jobs", spec))
            .expect("POST /jobs");
        submit_ns.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(status, 202);
        let id = Json::parse(std::str::from_utf8(body).expect("UTF-8").trim())
            .ok()
            .and_then(|doc| doc.get("id")?.as_u64())
            .expect("job id");
        loop {
            let (_, doc) = control.get(&format!("/jobs/{id}")).expect("GET /jobs/<id>");
            if !doc.contains("\"state\":\"running\"") {
                assert!(doc.contains("\"state\":\"done\""), "{doc}");
                return t0.elapsed().as_secs_f64();
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    };
    let threads_before = std::env::var_os("RAYON_NUM_THREADS");
    for _ in 0..5 {
        run_job(br#"{"kernel":"bfs","source":0,"depth":1}"#);
    }
    let job_s = run_job(JOB_SPEC);
    out.push((
        "serve.jobs.entries_per_s",
        JOB_PASSES as f64 * product.nnz() as f64 / job_s,
    ));
    out.push(("serve.jobs.submit_us", p50_us(submit_ns)));

    // the same point mix while jobs run back to back on this server
    // (all on the one pinned CPU): what queries pay, what jobs still get
    let jobs = JobDriver::start(node.addr);
    let started = Instant::now();
    let mut lat_ns = Vec::new();
    while started.elapsed() < 3 * window {
        lat_ns.extend(round_trips(&mut conn, &wires[..64]));
    }
    let tally = jobs.finish();
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(tally.failed, 0, "a probe job failed");
    lat_ns.sort_unstable();
    let at = |pct: u32| percentile_sorted(&lat_ns, pct) as f64 / 1e3;
    out.push(("serve.jobs.query_p50_under_job_us", at(50)));
    out.push(("serve.jobs.query_p99_under_job_us", at(99)));
    out.push((
        "serve.jobs.entries_per_s_under_load",
        (tally.done * JOB_PASSES) as f64 * product.nnz() as f64 / elapsed,
    ));

    drop(conn);
    let report = node.shutdown();
    out.push((
        "serve.cluster.row_wire_bytes_per_row",
        report.row_wire_bytes as f64 / report.rows_served.max(1) as f64,
    ));
    // a job worker pins RAYON_NUM_THREADS to cores − 1 for the rest of
    // the process when it is unset; undo that now the server is gone
    if threads_before.is_none() {
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}

/// Two nodes and a router over the csr2 run.
fn cluster_probes(
    product: &KronProduct,
    csr2: &Path,
    shards: usize,
    n: usize,
    rng: &mut StdRng,
    out: &mut Readings,
) {
    let _pin = Pinned::to_current_cpu(); // as the serving workloads run
    let cluster = Cluster::start(csr2, shards, 1 << 20);
    let fetches = |f: fn(&kron_serve::RoutingReport) -> u64| -> u64 {
        cluster
            .nodes
            .iter()
            .map(|node| f(&node.engine.routing()))
            .sum()
    };
    let mut routed = LoadConn::connect(cluster.router_addr).expect("connect the router");
    let mut direct = LoadConn::connect(cluster.nodes[0].addr).expect("connect node 0");

    // the router hop: degree of node 0's own vertices, direct and routed
    let own = cluster.nodes[0].engine.shard_set().subset_vertices();
    let degrees: Vec<Query> = (0..n)
        .map(|_| Query::Degree(rng.gen_range(own.clone())))
        .collect();
    let wires = query_wires(&degrees);
    round_trips(&mut routed, &wires[..n / 4]);
    round_trips(&mut direct, &wires[..n / 4]);
    let hop = p50_us(round_trips(&mut routed, &wires)) - p50_us(round_trips(&mut direct, &wires));
    out.push(("serve.router.hop_us", hop));

    let triangles = point_mix(product, rng, n / 4, [0, 0, 0, 0, 100]);
    let before = fetches(|r| r.remote_fetches);
    round_trips(&mut routed, &query_wires(&triangles));
    out.push((
        "serve.cluster.remote_fetches_per_query",
        (fetches(|r| r.remote_fetches) - before) as f64 / triangles.len() as f64,
    ));

    let vertex = |rng: &mut StdRng| rng.gen_range(0..product.num_vertices());
    let paths: Vec<Vec<u8>> = (0..n / 16)
        .map(|_| {
            get_wire(
                &Req::Path {
                    from: vertex(rng),
                    to: vertex(rng),
                }
                .target(),
            )
        })
        .collect();
    let khops: Vec<Vec<u8>> = (0..n / 16)
        .map(|_| {
            get_wire(
                &Req::Khop {
                    v: vertex(rng),
                    k: 2,
                }
                .target(),
            )
        })
        .collect();
    let touched = |r: &kron_serve::RoutingReport| r.cache_hits + r.cache_misses;
    let before = fetches(touched);
    out.push((
        "serve.path.path_us_p50",
        p50_us(round_trips(&mut routed, &paths)),
    ));
    out.push((
        "serve.path.rows_per_path",
        (fetches(touched) - before) as f64 / paths.len() as f64,
    ));
    out.push((
        "serve.path.khop_us_p50",
        p50_us(round_trips(&mut routed, &khops)),
    ));

    drop((routed, direct));
    let (router, _) = cluster.shutdown();
    out.push(("serve.router.failovers", router.failovers as f64));
    out.push(("serve.router.forward_errors", router.forward_errors as f64));
}

/// The whole-graph kernels on the v1 run.
fn analyze_probes(v1: &Path, rng: &mut StdRng, out: &mut Readings) {
    let set = ShardSet::open(v1).expect("open the probe run");
    let stop = AtomicBool::new(false);
    let kernel = |spec: &KernelSpec| secs(|| run_kernel(&set, spec, &stop).expect("probe kernel"));
    let bfs: Vec<f64> = (0..8)
        .map(|_| {
            kernel(&KernelSpec {
                source: rng.gen_range(0..set.num_vertices()),
                ..KernelSpec::new(Kernel::Bfs)
            })
        })
        .collect();
    out.push(("analyze.bfs_s", median(&bfs)));
    out.push((
        "analyze.cc_s",
        median(
            &(0..3)
                .map(|_| kernel(&KernelSpec::new(Kernel::Cc)))
                .collect::<Vec<_>>(),
        ),
    ));
    const ITERS: u64 = 10;
    let pagerank = |_| kernel(&fixed_pagerank(ITERS));
    let all_cores = median(&(0..3).map(pagerank).collect::<Vec<_>>());
    let one_core = with_threads(1, || median(&(0..3).map(pagerank).collect::<Vec<_>>()));
    out.push(("analyze.pagerank_s_per_iter", all_cores / ITERS as f64));
    out.push(("analyze.threads_speedup", one_core / all_cores));
    out.push((
        "analyze.census_s",
        kernel(&KernelSpec::new(Kernel::TriCensus)),
    ));
}

/// Run every probe. `sizes.probe_n` fixes the rig; `quick` shrinks the
/// sample counts for the self-check mode.
pub fn run_all(seed: u64, sizes: &Sizes, quick: bool) -> Readings {
    let started = Instant::now();
    // `n` in-process samples per probe, `net` round trips per network
    // probe (a loopback round trip costs 100 µs and more)
    let (n, net, window) = if quick {
        (512, 256, Duration::from_millis(100))
    } else {
        (8192, 2048, Duration::from_millis(500))
    };
    let shards = sizes.analyze_shards;
    let mut out = Readings::new();
    out.push(("proc.cores", proc::cores() as f64));

    let product = web_product(sizes.probe_n);
    let mut rng = lane_rng(seed, 5);
    let work = WorkDir::new("probes");
    let (csr2, v1) = (work.path().join("csr2"), work.path().join("v1"));

    core_probes(&product, shards, &mut rng, &mut out);
    stream_probes(&product, shards, work.path(), &csr2, &v1, &mut out);
    {
        let set = ShardSet::open(&v1).expect("open the probe run");
        let rows: Vec<Vec<u64>> = (0..n / 2)
            .filter_map(|_| Some(set.row(rng.gen_range(0..set.num_vertices()))?.to_vec()))
            .collect();
        codec_probes(&rows, &mut out);
    }
    http_probes(&mut out);
    engine_probes(&product, &csr2, &v1, n, &mut rng, &mut out);
    cluster_probes(&product, &csr2, shards, net, &mut rng, &mut out);
    analyze_probes(&v1, &mut rng, &mut out);
    // last: its jobs change RAYON_NUM_THREADS while they run
    server_probes(&product, &csr2, net, window, &mut rng, &mut out);

    out.push(("probe.total_s", started.elapsed().as_secs_f64()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PROBES;

    #[test]
    fn every_probe_metric_is_measured_once() {
        let readings = run_all(3, &Sizes::quick(), true);
        let mut got: Vec<&str> = readings.iter().map(|r| r.0).collect();
        let mut want: Vec<&str> = PROBES.iter().map(|m| m.0).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        for (name, value) in &readings {
            assert!(value.is_finite(), "{name} = {value}");
        }
        let get = |name: &str| readings.iter().find(|r| r.0 == name).unwrap().1;
        assert_eq!(get("serve.router.failovers"), 0.0);
        assert_eq!(get("serve.router.forward_errors"), 0.0);
        assert!(get("serve.cache.hit_rate") > 0.5);
        assert!(get("serve.cluster.remote_fetches_per_query") > 0.0);
        assert!(get("serve.cluster.row_wire_bytes_per_row") > 0.0);
    }
}

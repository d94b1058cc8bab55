//! The four serving workloads: a closed loop over one keep-alive
//! connection against in-process servers.
//!
//! Closed loop, one connection: scripted clients and the cluster's own
//! node-to-node fetches wait for each reply, and on a two-core box a
//! second connection oversubscribes the cores (the load generator, the
//! event thread and a worker already fill them). Every reply is
//! compared byte for byte with the answer precomputed from the closed
//! forms; a mismatch, a non-200 or a transport error is a failed
//! operation.

use super::{check_artifact, finish, repeat_setup, Ctx, Outcome, BATCH_LINES, WARMUP_SHARE};
use crate::inputs::{
    batch_body, cluster_mix, get_wire, hot_vertices, lane_rng, oracle_answers, point_mix,
    post_wire, query_body, traversal_body, tri_hot_mix, web_product, Req,
};
use crate::proc;
use crate::rig::{bind, stream_run, Cluster, LoadConn, Node, Pinned, WorkDir};
use crate::stats::Slice;
use crate::trace::{Recorder, NONE};
use kron_serve::{AnswerSource, OpenOptions, Query, RoutingReport, ServeEngine, ServerOptions};
use kron_stream::OutputFormat;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PointHttp,
    TriBatch,
    ClusterRouted,
}

/// The `point_http` mix: degree, neighbors, has_edge, tri_edge, tri_vertex.
pub const POINT_WEIGHTS: [u32; 5] = [40, 20, 20, 15, 5];
/// `tri_batch`: the data set's hot vertices and the share of lines
/// that hit them.
const HOT_VERTICES: usize = 64;
const HOT_SHARE: f64 = 0.9;
/// Row-cache budgets: `tri_batch`'s fits its working set, the cluster
/// nodes' does not.
const TRI_BATCH_CACHE: u64 = 4 << 20;
const CLUSTER_CACHE: u64 = 1 << 20;

/// One request, ready to send, with the reply it must get.
pub struct Prepared {
    pub wire: Vec<u8>,
    pub expect: Vec<u8>,
    /// Query lines it carries (1, or the batch size).
    pub lines: u64,
}

enum Target {
    Single(Node),
    Cluster(Cluster),
}

impl Target {
    fn addr(&self) -> SocketAddr {
        match self {
            Target::Single(node) => node.addr,
            Target::Cluster(cluster) => cluster.router_addr,
        }
    }

    fn routing(&self) -> Vec<RoutingReport> {
        match self {
            Target::Single(node) => vec![node.engine.routing()],
            Target::Cluster(cluster) => cluster.nodes.iter().map(|n| n.engine.routing()).collect(),
        }
    }
}

/// Everything a serving workload set up. Field order is drop order:
/// the servers stop before the directory they map is removed; the pin
/// goes last.
struct Serving {
    conn: LoadConn,
    target: Target,
    requests: Vec<Prepared>,
    work: WorkDir,
    pin: Pinned,
}

/// An engine over `dir` opened without re-hashing the shards (the
/// serving nodes verify checksums; the references beside them need not
/// again): `Oracle` answers from the closed forms, `CrossCheck` from
/// the artifact with every answer checked against them.
pub fn reference_engine(dir: &Path, source: AnswerSource) -> ServeEngine {
    ServeEngine::open_with(
        dir,
        &OpenOptions {
            verify_checksums: false,
            source,
            ..OpenOptions::default()
        },
    )
    .expect("open the reference engine")
}

/// `GET /query` requests with their closed-form replies.
pub fn prepare_queries(oracle: &ServeEngine, queries: &[Query]) -> Vec<Prepared> {
    let answers = oracle_answers(oracle, queries);
    queries
        .iter()
        .zip(&answers)
        .map(|(q, a)| {
            assert!(
                a.is_ok(),
                "workloads are chosen so that no query fails: {q}"
            );
            Prepared {
                wire: get_wire(&Req::Query(*q).target()),
                expect: query_body(a),
                lines: 1,
            }
        })
        .collect()
}

fn set_up(kind: Kind, ctx: &Ctx<'_>) -> Serving {
    let sizes = &ctx.sizes;
    let product = web_product(sizes.serve_n);
    let work = WorkDir::new("serve");
    let dir = work.path();
    let format = if kind == Kind::TriBatch {
        OutputFormat::Csr
    } else {
        OutputFormat::Csr2
    };
    stream_run(&product, dir, format, sizes.shards);
    let oracle = reference_engine(dir, AnswerSource::Oracle);
    let mut rng = lane_rng(ctx.seed, 3);

    let requests: Vec<Prepared> = match kind {
        Kind::PointHttp => {
            let queries = point_mix(&product, &mut rng, sizes.request_pool, POINT_WEIGHTS);
            prepare_queries(&oracle, &queries)
        }
        Kind::TriBatch => {
            let hot = hot_vertices(&product, HOT_VERTICES);
            let queries = tri_hot_mix(&product, &mut rng, sizes.request_pool, &hot, HOT_SHARE);
            let answers = oracle_answers(&oracle, &queries);
            queries
                .chunks(BATCH_LINES)
                .zip(answers.chunks(BATCH_LINES))
                .map(|(qs, answers)| {
                    let body: String = qs.iter().map(|q| format!("{q}\n")).collect();
                    Prepared {
                        wire: post_wire("/batch", body.as_bytes()),
                        expect: batch_body(qs, answers),
                        lines: qs.len() as u64,
                    }
                })
                .collect()
        }
        Kind::ClusterRouted => {
            let reqs = cluster_mix(&product, &mut rng, sizes.cluster_pool);
            let queries: Vec<Query> = reqs
                .iter()
                .filter_map(|r| match r {
                    Req::Query(q) => Some(*q),
                    _ => None,
                })
                .collect();
            let mut answered = prepare_queries(&oracle, &queries).into_iter();
            let reference = reference_engine(dir, AnswerSource::CrossCheck);
            let requests = reqs
                .iter()
                .map(|r| match r {
                    Req::Query(_) => answered.next().expect("one per query"),
                    traversal => Prepared {
                        wire: get_wire(&traversal.target()),
                        expect: traversal_body(&reference, traversal),
                        lines: 1,
                    },
                })
                .collect();
            assert_eq!(
                reference.mismatch_count(),
                0,
                "a reference path failed certification against the closed forms"
            );
            requests
        }
    };

    // from here on one CPU: the servers' threads are born pinned
    let pin = Pinned::to_current_cpu();
    let single = |row_cache_bytes: u64| {
        let engine = ServeEngine::open_with(
            dir,
            &OpenOptions {
                row_cache_bytes,
                ..OpenOptions::default()
            },
        )
        .expect("open the serving engine");
        Target::Single(Node::start(bind(), engine, ServerOptions::default()))
    };
    let target = match kind {
        Kind::PointHttp => single(0),
        Kind::TriBatch => single(TRI_BATCH_CACHE),
        Kind::ClusterRouted => Target::Cluster(Cluster::start(dir, sizes.shards, CLUSTER_CACHE)),
    };
    let conn = LoadConn::connect(target.addr()).expect("connect the load generator");
    Serving {
        conn,
        target,
        requests,
        work,
        pin,
    }
}

/// In the traced run one request in eight is traced: enough for a
/// median per slice on the slowest workload, few enough that the
/// fastest stays inside the recorder (3 spans × 60 K requests).
pub const TRACE_EVERY: u64 = 8;

/// How a closed-loop window is cut.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub warmup_s: f64,
    pub slices: usize,
    pub slice_s: f64,
    /// Record spans around one request in [`TRACE_EVERY`] (the traced
    /// run), so traced and untraced requests see the same server, the
    /// same neighbours and the same mix.
    pub trace_alternate: bool,
}

impl Window {
    /// A warm-up, then five equal slices.
    pub fn of(seconds: f64, warmup_share: f64, traced: bool) -> Window {
        Window {
            warmup_s: seconds * warmup_share,
            slices: 5,
            slice_s: seconds / 5.0,
            trace_alternate: traced,
        }
    }
}

/// What one window produced.
pub struct Driven {
    /// The untraced requests by slice: the only source of end-to-end
    /// metrics.
    pub plain: Vec<Slice>,
    /// The traced requests by slice (empty outside the traced run).
    pub traced: Vec<Slice>,
    /// Requests sent, warm-up included.
    pub sent: u64,
}

/// Drive `requests` (cycled) over `conn` for one window. Failed
/// operations are counted on `out` and contribute no latency sample.
pub fn closed_loop(
    conn: &mut LoadConn,
    addr: SocketAddr,
    requests: &[Prepared],
    window: Window,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Driven {
    // untraced slices last their share of the window; in the traced run
    // a slice's requests fall into two sets, and each set is charged
    // the time of its own round trips
    let empty = |secs: f64| -> Vec<Slice> {
        (0..window.slices)
            .map(|_| Slice {
                secs,
                ..Slice::default()
            })
            .collect()
    };
    let alternate = window.trace_alternate;
    let mut plain = empty(if alternate { 0.0 } else { window.slice_s });
    let mut traced = empty(0.0);
    let start = Instant::now();
    let end_s = window.warmup_s + window.slices as f64 * window.slice_s;
    let mut sent = 0u64;
    loop {
        let t0 = Instant::now();
        let at = t0.duration_since(start).as_secs_f64();
        if at >= end_s {
            break;
        }
        let timed = at >= window.warmup_s;
        let trace = timed && alternate && sent % TRACE_EVERY == 1;
        let request = &requests[sent as usize % requests.len()];
        sent += 1;
        let op = sent as u32;

        let reply = if trace {
            let span = rec.begin("request", NONE, op);
            let send = rec.begin("client.send", span, op);
            let sent = conn.send(&request.wire);
            rec.end(send);
            let recv = rec.begin("client.recv", span, op);
            let reply = sent.and_then(|()| conn.recv());
            rec.end(recv);
            rec.end(span);
            reply
        } else {
            conn.round_trip(&request.wire)
        };
        let done = Instant::now();
        // Err carries (whether the connection is unusable, what went wrong)
        let verdict = match reply {
            Ok((200, body)) if body == &request.expect[..] => Ok(()),
            Ok((status, body)) => Err((
                false,
                format!(
                    "{}: status {status}, {} body bytes, expected {}",
                    String::from_utf8_lossy(&request.wire[..request.wire.len().min(60)])
                        .escape_debug(),
                    body.len(),
                    request.expect.len()
                ),
            )),
            Err(e) => Err((true, format!("transport: {e}"))),
        };
        if let Err((true, _)) = &verdict {
            *conn = LoadConn::connect(addr).expect("reconnect the load generator");
        }
        if !timed {
            continue;
        }
        match verdict {
            Err((_, what)) => out.check(false, || what),
            Ok(()) => {
                out.check(true, String::new);
                // a request counts in the slice it completes in
                let at_done = done.duration_since(start).as_secs_f64() - window.warmup_s;
                let slice = ((at_done / window.slice_s) as usize).min(window.slices - 1);
                let set = if trace {
                    &mut traced[slice]
                } else {
                    &mut plain[slice]
                };
                let lat = done.duration_since(t0);
                set.units += request.lines;
                set.lat_ns.push(lat.as_nanos() as u64);
                if alternate {
                    set.secs += lat.as_secs_f64();
                }
            }
        }
    }
    if !alternate {
        traced.clear();
    }
    Driven {
        plain,
        traced,
        sent,
    }
}

pub fn run(kind: Kind, ctx: &mut Ctx<'_>) -> Outcome {
    let (mut serving, setup_s) = repeat_setup(ctx.setups(), || set_up(kind, ctx));
    let mut out = Outcome::default();

    let window = Window::of(ctx.seconds, WARMUP_SHARE, ctx.traced());
    let routing_before = serving.target.routing();
    let cpu_before = proc::cpu_us();
    let addr = serving.target.addr();
    let driven = closed_loop(
        &mut serving.conn,
        addr,
        &serving.requests,
        window,
        ctx.rec,
        &mut out,
    );
    let cpu_us = proc::cpu_us() - cpu_before;
    let routing_after = serving.target.routing();
    out.set_window(&driven.plain, &driven.traced, cpu_us);

    let delta = |f: fn(&RoutingReport) -> u64| -> u64 {
        let sum = |rs: &[RoutingReport]| rs.iter().map(f).sum::<u64>();
        sum(&routing_after) - sum(&routing_before)
    };
    let (hits, misses) = (delta(|r| r.cache_hits), delta(|r| r.cache_misses));
    if hits + misses > 0 {
        out.observed.cache_hit_rate = hits as f64 / (hits + misses) as f64;
    }
    out.observed.remote_fetches_per_op =
        delta(|r| r.remote_fetches) as f64 / driven.sent.max(1) as f64;

    let Serving {
        conn,
        target,
        work,
        pin,
        ..
    } = serving;
    drop(conn);
    match target {
        Target::Single(node) => {
            let report = node.shutdown();
            out.check(
                report.mismatches == 0 && report.job_validation_failures == 0,
                || format!("server report: {report}"),
            );
        }
        Target::Cluster(cluster) => {
            let (router, nodes) = cluster.shutdown();
            out.observed.router_failovers = router.failovers;
            out.observed.router_forward_errors = router.forward_errors;
            out.check(router.failovers == 0 && router.forward_errors == 0, || {
                format!("router report: {router}")
            });
            out.check(nodes.iter().all(|n| n.mismatches == 0), || {
                "a node recorded mismatches".into()
            });
        }
    }
    // the run directory is validated with the servers gone and the pin
    // lifted
    drop(pin);
    check_artifact(work.path(), ctx.artifact_reps(), &mut out);
    drop(work);
    finish(out, setup_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Sizes;

    fn quick(kind: Kind, traced: bool) -> Outcome {
        let mut rec = if traced {
            Recorder::new(100_000)
        } else {
            Recorder::off()
        };
        let mut ctx = Ctx {
            seed: 9,
            seconds: 0.5,
            sizes: Sizes::quick(),
            rec: &mut rec,
        };
        let out = run(kind, &mut ctx);
        if traced {
            let spans = rec.spans();
            assert!(spans
                .iter()
                .any(|s| s.name == "client.recv" && s.parent != NONE));
            assert!(out.observed.trace_overhead_frac.is_finite());
        } else {
            assert!(rec.spans().is_empty());
        }
        out
    }

    fn assert_clean(out: &Outcome) {
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.attempted > 100);
        let e = &out.e2e;
        for v in [
            e.setup_s,
            e.ops_per_s,
            e.p50_us,
            e.peak_rss_mb,
            e.bytes_per_entry,
        ] {
            assert!(v.is_finite() && v > 0.0, "{e:?}");
        }
    }

    #[test]
    fn every_serving_workload_answers_correctly_at_toy_size() {
        let point = quick(Kind::PointHttp, false);
        assert_clean(&point);
        assert_eq!(
            point.observed.cache_hit_rate, 0.0,
            "point_http runs without a cache"
        );

        let batch = quick(Kind::TriBatch, false);
        assert_clean(&batch);
        assert!(
            batch.observed.cache_hit_rate > 0.5,
            "hot rows fit the cache"
        );
        assert!(
            batch.e2e.bytes_per_entry > 8.0,
            "v1 shards: 8 bytes per column and offsets"
        );
        assert!(point.e2e.bytes_per_entry < 4.0, "csr2 shards");

        let cluster = quick(Kind::ClusterRouted, true);
        assert_clean(&cluster);
        assert!(
            cluster.observed.remote_fetches_per_op > 0.0,
            "triangle lines cross nodes"
        );
    }

    #[test]
    fn a_wrong_answer_is_a_failed_operation() {
        let mut ctx_rec = Recorder::off();
        let ctx = Ctx {
            seed: 2,
            seconds: 0.2,
            sizes: Sizes::quick(),
            rec: &mut ctx_rec,
        };
        let mut serving = set_up(Kind::PointHttp, &ctx);
        serving.requests[0].expect = b"not the answer\n".to_vec();
        let mut out = Outcome::default();
        let window = Window::of(0.2, 0.0, false);
        let addr = serving.target.addr();
        let driven = closed_loop(
            &mut serving.conn,
            addr,
            &serving.requests[..4],
            window,
            &mut Recorder::off(),
            &mut out,
        );
        assert_eq!(driven.sent, out.attempted);
        assert!(out.failed > 0 && out.failed < out.attempted);
        assert!(out.failures[0].contains("status 200"), "{:?}", out.failures);
    }
}

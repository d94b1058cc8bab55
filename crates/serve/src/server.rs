//! The long-lived serving process: a TCP/HTTP front end over
//! [`ServeEngine`].
//!
//! A `kron serve --queries` run pays process startup, shard validation
//! and the factor load for one batch. [`Server`] pays them once for the
//! process lifetime: open once, `mmap` once, then answer over loopback
//! or the network until told to stop. Under
//! [`crate::AnswerSource::CrossCheck`] every answer it serves is checked
//! against the paper's closed forms.
//!
//! Design constraints shape the implementation:
//!
//! * **std only** (no crate registry): a hand-rolled HTTP/1.1 subset
//!   ([`crate::http`]) over `std::net::TcpListener`.
//! * **an event loop, not thread-per-connection**: one event thread
//!   `poll(2)`s every socket (via the [`crate::poll`] syscall shim), so
//!   10K+ mostly idle keep-alive connections cost pollfd entries, not
//!   threads. Idle/slow-client timeouts (`--idle-timeout`,
//!   `--io-timeout`) bound what a misbehaving peer can hold. The loop
//!   itself lives in [`crate::event_loop`].
//! * **one dispatcher, two threads**: the loop offers every parsed
//!   request to `route` on the event thread first. There `route` answers
//!   what is bounded and known before it starts — refusals, `/healthz`,
//!   `/shards`, `/row` / `degree` / `has_edge` / `neighbors` on a
//!   resident row of at most `INLINE_ROW_CAP` entries, and as much of a
//!   peer's `/rows` or `/wedges` as fits `INLINE_MERGE_CAP` entries — and
//!   declines the rest, which the loop hands to a bounded worker pool
//!   (`--threads`) where the same `route` answers it. Nothing answered on
//!   the event thread may block: no peer fetch, no lock held across I/O,
//!   no spawn; the latency window `/stats` reports from is lock-free for
//!   that reason.
//! * **the cluster-internal endpoints call no peer**: `/row` and `/rows`
//!   read resident rows, `/wedges` intersects a shipped row with resident
//!   ones, on whichever thread answers them; and all three are answered
//!   on the event thread unless a (first) row is longer than
//!   `INLINE_ROW_CAP` — so two nodes asking each other about short rows
//!   never wait on each other's workers.
//! * **graceful shutdown via an atomic flag**: [`Server::run`] borrows a
//!   caller-owned `AtomicBool` (the CLI sets it from SIGTERM/SIGINT, the
//!   tests from a scope thread). On shutdown the listener stops
//!   accepting, in-flight requests drain, and `run` returns a
//!   [`ServerReport`] the caller turns into an exit code (nonzero if any
//!   checked answer disagreed with the oracle).
//!
//! The wire protocol (endpoints, status codes, JSON shapes) is specified
//! normatively in `ARCHITECTURE.md` § "Serving over the network"; the
//! connection state machine and timeout semantics in its "Connection
//! lifecycle & timeouts" subsection.

use crate::batch::{self, QueryStats};
use crate::cluster::{parse_rows_ask, WedgeAsk};
use crate::endpoints::{
    self, error, json, Endpoint, Point, Response, Tier, MAX_BATCH_RESPONSE, TEXT,
};
use crate::engine::ServeEngine;
use crate::event_loop::{serve_connections, ConnCounters, LoopConfig, Thread};
use crate::http;
use crate::path::PathFinder;
use kron_stream::csr::varint_push;
use kron_stream::json::Json;
use kron_triangles::slice;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-query latencies kept for the `/stats` rolling window.
const RECENT_LATENCIES: usize = 4096;

/// Server tuning knobs.
#[derive(Clone, Debug, Default)]
pub struct ServerOptions {
    /// Request-execution worker threads. Connections are *not* tied to
    /// threads (the event loop holds them all); this sizes the pool that
    /// runs the endpoint handlers the event thread declines — the ones
    /// that may block on peer I/O or run long — so more threads than
    /// cores is the right shape. `0` means 64.
    pub threads: usize,
    /// Maximum analytics jobs running concurrently (`POST /jobs` beyond
    /// the cap is rejected with 429, never queued); `0` means 2. Job
    /// workers are separate from the request worker pool, so a saturated
    /// job pool leaves point-query latency untouched.
    pub jobs: usize,
    /// Maximum concurrently open connections; `0` means 10240. At the
    /// cap the listener is not polled, leaving further peers in the
    /// kernel's accept backlog until a slot frees up.
    pub max_conns: usize,
    /// Keep-alive idle timeout — a connection with no request in
    /// progress for this long is closed. `None` means 60 s.
    pub idle_timeout: Option<Duration>,
    /// Slow-client I/O timeout — a hard deadline for completing a
    /// started request (armed at its first byte; a 1-byte-per-tick
    /// slow-loris drip cannot extend it) and a no-progress bound on
    /// response writes. `None` means 10 s.
    pub io_timeout: Option<Duration>,
}

/// Default worker pool size: request handling is blocking-I/O bound
/// (remote rows, router forwards), not CPU bound, so far more workers
/// than cores is the right shape.
const DEFAULT_WORKERS: usize = 64;

/// Default open-connection cap. High enough for the 10K-connection
/// bench target with headroom, low enough to stay under common fd
/// rlimits with room for shards, pipes, and the listener.
const DEFAULT_MAX_CONNS: usize = 10240;

/// Default keep-alive idle timeout.
const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Default slow-client read/write timeout.
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(10);

impl ServerOptions {
    /// Worker-pool size with the default applied.
    pub(crate) fn workers(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            DEFAULT_WORKERS
        }
    }

    /// The resolved event-loop configuration.
    pub(crate) fn loop_config(&self) -> LoopConfig {
        LoopConfig {
            workers: self.workers(),
            max_conns: if self.max_conns > 0 {
                self.max_conns
            } else {
                DEFAULT_MAX_CONNS
            },
            idle_timeout: self.idle_timeout.unwrap_or(DEFAULT_IDLE_TIMEOUT),
            io_timeout: self.io_timeout.unwrap_or(DEFAULT_IO_TIMEOUT),
        }
    }

    pub(crate) fn max_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            crate::jobs::DEFAULT_MAX_JOBS
        }
    }
}

/// Totals of one server run, returned by [`Server::run`] after shutdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerReport {
    /// HTTP requests handled (all endpoints).
    pub requests: u64,
    /// Requests rejected as malformed (bad framing, bad query syntax).
    pub bad_requests: u64,
    /// Queries answered (each `/query`, plus each line of every
    /// `/batch`).
    pub queries: u64,
    /// Queries that returned an engine error (out-of-range, corrupt).
    pub query_errors: u64,
    /// Adjacency rows served to cluster peers: one per `GET /row`, one
    /// per row of a `POST /rows` answer.
    pub rows_served: u64,
    /// Body bytes those `/row` and `/rows` answers carried. Compared
    /// against `rows_served * 8 * mean row length` this shows what the
    /// varint delta wire encoding saved.
    pub row_wire_bytes: u64,
    /// `POST /wedges` exchanges answered for cluster peers: one per
    /// request, however many neighbours it asked about.
    pub wedges_served: u64,
    /// Answers checked against the closed forms (see
    /// [`ServeEngine::sampled_checks`]).
    pub sampled_checks: u64,
    /// Artifact/oracle disagreements recorded over the whole run.
    pub mismatches: u64,
    /// Analytics jobs submitted over `POST /jobs` (admitted, not
    /// rejected).
    pub jobs_submitted: u64,
    /// Jobs that failed for any reason other than cancellation
    /// (validation mismatch, corrupt artifact, incomplete subset).
    pub jobs_failed: u64,
    /// Jobs ended by cooperative cancel (`DELETE /jobs/<id>` or server
    /// shutdown). Not counted in `jobs_failed`: a cancelled job says
    /// nothing about the artifact, so it never fails the run.
    pub jobs_cancelled: u64,
    /// Jobs whose finished result contradicted the closed forms — the
    /// job-level analogue of `mismatches`, and like it a nonzero-exit
    /// condition for the CLI.
    pub job_validation_failures: u64,
}

impl std::fmt::Display for ServerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests ({} malformed), {} queries ({} errors), \
             {} rows served to peers ({} wire bytes), {} wedge exchanges served, \
             {} checked answers, {} mismatches, \
             {} jobs ({} failed, {} cancelled, {} validation failures)",
            self.requests,
            self.bad_requests,
            self.queries,
            self.query_errors,
            self.rows_served,
            self.row_wire_bytes,
            self.wedges_served,
            self.sampled_checks,
            self.mismatches,
            self.jobs_submitted,
            self.jobs_failed,
            self.jobs_cancelled,
            self.job_validation_failures
        )
    }
}

/// The request/framing/connection counters every HTTP front end in this
/// crate keeps (the query server here, the forwarding router in
/// [`crate::router`]). `bad_requests` counts *framing and syntax*
/// rejections only; connections lost to resets or timeouts are
/// transport events, accounted in `conns` and never here.
pub(crate) struct LoopCounters {
    pub(crate) requests: AtomicU64,
    pub(crate) bad_requests: AtomicU64,
    pub(crate) conns: ConnCounters,
}

impl LoopCounters {
    pub(crate) fn new() -> LoopCounters {
        LoopCounters {
            requests: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            conns: ConnCounters::new(),
        }
    }
}

/// Counters and the latency window shared by all workers.
struct ServerState<'e> {
    engine: &'e ServeEngine,
    started: Instant,
    threads: usize,
    http: LoopCounters,
    queries: AtomicU64,
    query_errors: AtomicU64,
    rows_served: AtomicU64,
    row_wire_bytes: AtomicU64,
    wedges_served: AtomicU64,
    wedge_checks: AtomicU64,
    /// Rolling window of the most recent per-query latencies in
    /// nanoseconds; `/stats` derives its percentile block from this.
    /// Lock-free, because the event thread records here too.
    recent: [AtomicU64; RECENT_LATENCIES],
    /// Analytics-job registry behind `POST /jobs` (see [`crate::jobs`]).
    jobs: crate::jobs::JobRegistry,
}

impl<'e> ServerState<'e> {
    fn new(engine: &'e ServeEngine, opts: &ServerOptions) -> ServerState<'e> {
        ServerState {
            engine,
            started: Instant::now(),
            threads: opts.workers(),
            http: LoopCounters::new(),
            queries: AtomicU64::new(0),
            query_errors: AtomicU64::new(0),
            rows_served: AtomicU64::new(0),
            row_wire_bytes: AtomicU64::new(0),
            wedges_served: AtomicU64::new(0),
            wedge_checks: AtomicU64::new(0),
            recent: std::array::from_fn(|_| AtomicU64::new(0)),
            jobs: crate::jobs::JobRegistry::new(opts.max_jobs()),
        }
    }

    /// Record one answered query.
    fn record_query(&self, lat: Duration, is_err: bool, checks: u64) {
        // overwrite round-robin: cheap, and percentiles of a rolling
        // window do not care about intra-window order. The slot comes
        // from this query's own ticket, so no two queries share one.
        let ticket = self.queries.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(lat.as_nanos()).unwrap_or(u64::MAX);
        self.recent[ticket as usize % RECENT_LATENCIES].store(nanos, Ordering::Relaxed);
        self.query_errors
            .fetch_add(u64::from(is_err), Ordering::Relaxed);
        self.wedge_checks.fetch_add(checks, Ordering::Relaxed);
    }

    fn report(&self) -> ServerReport {
        ServerReport {
            requests: self.http.requests.load(Ordering::Relaxed),
            bad_requests: self.http.bad_requests.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            query_errors: self.query_errors.load(Ordering::Relaxed),
            rows_served: self.rows_served.load(Ordering::Relaxed),
            row_wire_bytes: self.row_wire_bytes.load(Ordering::Relaxed),
            wedges_served: self.wedges_served.load(Ordering::Relaxed),
            sampled_checks: self.engine.sampled_checks(),
            mismatches: self.engine.mismatch_count(),
            jobs_submitted: self.jobs.submitted(),
            jobs_failed: self.jobs.jobs_failed(),
            jobs_cancelled: self.jobs.jobs_cancelled(),
            job_validation_failures: self.jobs.validation_failures(),
        }
    }

    /// The `/stats` document.
    fn stats_json(&self) -> Json {
        // slots fill in ticket order, so the first `queries` are the live
        // ones until the window wraps
        let filled = (self.queries.load(Ordering::Relaxed) as usize).min(RECENT_LATENCIES);
        let recent = self.recent[..filled]
            .iter()
            .map(|nanos| Duration::from_nanos(nanos.load(Ordering::Relaxed)))
            .collect();
        // Latencies are the rolling window; the scalar fields (errors,
        // mismatches, wedge checks, wall = uptime) are run totals, so the
        // row never contradicts the top-level counters beside it.
        let window = QueryStats::from_samples(
            self.engine.source(),
            recent,
            self.query_errors.load(Ordering::Relaxed) as usize,
            self.engine.mismatch_count(),
            self.threads,
            self.started.elapsed(),
            self.wedge_checks.load(Ordering::Relaxed),
        );
        let mut fields = vec![
            ("source", Json::str(&self.engine.source().to_string())),
            (
                "uptime_secs",
                Json::num(self.started.elapsed().as_secs_f64()),
            ),
            ("threads", Json::num(self.threads)),
            (
                "requests",
                Json::num(self.http.requests.load(Ordering::Relaxed)),
            ),
            (
                "bad_requests",
                Json::num(self.http.bad_requests.load(Ordering::Relaxed)),
            ),
            ("queries", Json::num(self.queries.load(Ordering::Relaxed))),
            (
                "errors",
                Json::num(self.query_errors.load(Ordering::Relaxed)),
            ),
            (
                "rows_served",
                Json::num(self.rows_served.load(Ordering::Relaxed)),
            ),
            (
                "wedges_served",
                Json::num(self.wedges_served.load(Ordering::Relaxed)),
            ),
            (
                "row_wire_bytes",
                Json::num(self.row_wire_bytes.load(Ordering::Relaxed)),
            ),
            ("sampled_checks", Json::num(self.engine.sampled_checks())),
            ("mismatch_count", Json::num(self.engine.mismatch_count())),
            ("connections", self.http.conns.to_json()),
            ("recent", window.to_json()),
            ("routing", self.engine.routing().to_json()),
        ];
        // Cluster nodes add per-replica health under `peers`; single-node
        // engines omit the key (ARCHITECTURE.md § "Cluster serving").
        if let Some(remote) = self.engine.remote() {
            fields.push(("peers", remote.peer_stats()));
        }
        fields.push(("jobs", self.jobs.stats_json()));
        fields.push((
            "mismatches",
            Json::Arr(
                self.engine
                    .mismatches()
                    .iter()
                    .map(|m| m.to_json())
                    .collect(),
            ),
        ));
        Json::obj(fields)
    }
}

/// A bound, not-yet-running server.
///
/// Binding and running are split so the caller can learn the actual
/// address (`--listen 127.0.0.1:0` binds an ephemeral port) before the
/// blocking [`Server::run`] call.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
}

impl Server {
    /// Bind the listening socket. The listener is placed in
    /// non-blocking mode so the accept loop can interleave shutdown
    /// checks.
    ///
    /// # Errors
    ///
    /// Fails when the address does not parse, is in use, or cannot be
    /// bound.
    pub fn bind(addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server { listener })
    }

    /// The bound address (with the real port for `:0` binds).
    ///
    /// # Errors
    ///
    /// Fails when the socket is gone (never, in practice, on a freshly
    /// bound listener).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound listener, for other front ends in this crate (the
    /// router) reusing the same accept loop.
    pub(crate) fn listener(&self) -> &TcpListener {
        &self.listener
    }

    /// Serve until `shutdown` becomes `true`, then drain and return the
    /// run's totals.
    ///
    /// Connections live on the event loop; parsed requests are executed
    /// by a pool of `opts.threads` workers. On shutdown: no new
    /// connections are accepted, idle keep-alive connections are closed
    /// at the next poll tick (≤ ~100 ms), in-flight requests are
    /// answered and flushed, then `run` returns.
    ///
    /// # Errors
    ///
    /// The event loop itself never returns an I/O error (transient
    /// accept failures retry; a persistently dead listener ends the run
    /// with whatever totals accumulated); the `io::Result` is kept for
    /// interface stability.
    pub fn run(
        &self,
        engine: &ServeEngine,
        opts: &ServerOptions,
        shutdown: &AtomicBool,
    ) -> io::Result<ServerReport> {
        let state = ServerState::new(engine, opts);
        // Job workers are scoped threads spawned by `POST /jobs`
        // handlers; the scope exit is the shutdown barrier for them.
        // Once the accept loop has drained, every still-running job is
        // cancelled cooperatively so the join never waits on a
        // long-running kernel — this is also what makes SIGTERM during
        // a job exit cleanly.
        std::thread::scope(|scope| {
            serve_connections(
                &self.listener,
                &opts.loop_config(),
                "kron serve",
                shutdown,
                &state.http,
                &|req, on| route(&state, scope, req, on),
            );
            state.jobs.cancel_all();
        });
        Ok(state.report())
    }
}

/// Status for an engine error surfaced on `GET /query`: a remote-row
/// fetch failure is the node's upstream failing (502), everything else
/// is the query being unanswerable for this run (422).
fn error_status(e: &crate::engine::ServeError) -> u16 {
    match e {
        crate::engine::ServeError::Remote(_) => 502,
        _ => 422,
    }
}

/// Longest resident row (in entries, by [`kron_stream::CsrMap::row_len_bound`])
/// the event thread reads itself; of the order of `kron::RUN_CAPACITY`,
/// the generator's own unit of bounded work. A longer row goes to the
/// pool.
pub(crate) const INLINE_ROW_CAP: usize = 4096;

/// Whether `v`'s row in this resident shard is short enough for the
/// event thread, judged without decoding it.
fn row_fits(shard: &kron_stream::OpenShard, v: u64) -> bool {
    let fits = |len| len <= INLINE_ROW_CAP;
    shard.reader.row_len_bound(v).is_some_and(fits)
}

/// Whether reading `v`'s row is bounded work that touches nothing but
/// this node's own mappings: its shard is resident here and the row
/// [fits](row_fits). A vertex no shard owns is bounded too — the engine
/// refuses it without reading anything.
fn row_is_bounded(engine: &ServeEngine, v: u64) -> bool {
    let set = engine.shard_set();
    match set.route(v) {
        None => true,
        Some(shard) => set.local(shard).is_some_and(|open| row_fits(open, v)),
    }
}

/// Dispatch one request to its endpoint — the one dispatcher, asked on
/// the event thread first ([`Thread::Event`]) and, for what it declines
/// there (`None`), again on the pool.
///
/// What it answers on the event thread is the bounded set of
/// `ARCHITECTURE.md` § "Serving over the network": table refusals, a
/// `400`, `/healthz`, `/shards`, `/row` and single-row `/query`s on a
/// short resident row, and a bounded prefix of a `/rows` or `/wedges`.
/// Nothing there touches a peer, spawns, or takes a lock that is held
/// across I/O.
///
/// `scope` is the job-worker scope owned by [`Server::run`]: `POST
/// /jobs` spawns its kernel worker there, so the run's scope exit (after
/// `cancel_all`) is the single join point for both connection handlers
/// and job workers.
fn route<'s>(
    state: &'s ServerState<'s>,
    scope: &'s std::thread::Scope<'s, '_>,
    req: &http::Request,
    on: Thread,
) -> Option<Response> {
    let pool = on == Thread::Pool;
    if let Some(id) = req.path.strip_prefix("/jobs/") {
        return pool.then(|| route_job(state, &req.method, id));
    }
    let endpoint = match endpoints::resolve(Tier::Node, &req.method, &req.path) {
        Ok(endpoint) => endpoint,
        Err(refusal) => return Some(refusal),
    };
    match endpoint {
        Endpoint::Healthz => Some((200, TEXT, b"ok\n".to_vec())),
        Endpoint::Point(kind) => match Point::parse(kind, req) {
            Err(e) => Some(error(400, e)),
            Ok(point) => {
                let row = point.single_row();
                (pool || row.is_some_and(|v| row_is_bounded(state.engine, v)))
                    .then(|| answer_point(state, point))
            }
        },
        Endpoint::Row => serve_row(state, req, on),
        Endpoint::Rows => serve_rows(state, req, on),
        Endpoint::Wedges => serve_wedges(state, req, on),
        Endpoint::Shards => {
            // The node's slice of the ownership map — what a router (or a
            // curious operator) needs to route by vertex range.
            let set = state.engine.shard_set();
            let (subset, span) = (set.subset(), set.subset_vertices());
            Some(endpoints::shards(
                set.num_shards(),
                subset,
                span,
                set.num_vertices(),
            ))
        }
        Endpoint::Batch => pool.then(|| answer_batch(state, req)),
        Endpoint::Stats => pool.then(|| json(200, state.stats_json())),
        Endpoint::Jobs => pool.then(|| route_jobs(state, scope, req)),
    }
}

/// `GET /query`, `/path`, `/khop`: one parsed request, one answer.
fn answer_point(state: &ServerState<'_>, point: Point) -> Response {
    let t0 = Instant::now();
    let (res, checks) = match point {
        Point::Query(query) => {
            let (res, checks) = batch::answer(state.engine, query);
            (res.map(|a| format!("{a}\n")), checks)
        }
        Point::Path {
            from,
            to,
            max_depth,
        } => {
            let res = PathFinder::new(state.engine).shortest_path(from, to, max_depth);
            (res.map(|a| format!("{}\n", a.to_json())), 0)
        }
        Point::Khop { v, k } => {
            let res = PathFinder::new(state.engine).khop(v, k);
            (res.map(|a| format!("{}\n", a.to_json())), 0)
        }
    };
    state.record_query(t0.elapsed(), res.is_err(), checks);
    match res {
        Ok(body) => (200, point.content_type(), body.into_bytes()),
        Err(e) => error(error_status(&e), e),
    }
}

/// `GET /row` — one resident adjacency row in the varint delta encoding,
/// whatever `enc` asks for. No node asks it (peers ask `POST /rows`); it
/// stays for tools that probe a single row. Not a query — it bumps
/// `rows_served`, never the engine's query counter. Every refusal is
/// bounded; the row itself only up to [`INLINE_ROW_CAP`], past which the
/// event thread declines.
fn serve_row(state: &ServerState<'_>, req: &http::Request, on: Thread) -> Option<Response> {
    let set = state.engine.shard_set();
    let (Some(shard), Some(v)) = (req.query_param("shard"), req.query_param("v")) else {
        return Some(error(400, "/row needs shard=S and v=V parameters"));
    };
    let Ok(shard) = shard.parse::<usize>() else {
        return Some(error(400, "shard must be a shard index"));
    };
    let Ok(v) = v.parse::<u64>() else {
        return Some(error(400, "v must be a vertex id"));
    };
    let Some(range) = set.shard_vertices(shard) else {
        let shards = set.num_shards();
        return Some(error(
            404,
            format_args!("no shard {shard} in this run ({shards} shards)"),
        ));
    };
    let Some(open) = set.local(shard) else {
        let subset = set.subset();
        return Some(error(
            404,
            format_args!(
                "shard {shard} is not resident on this node (serving {}..{})",
                subset.start, subset.end
            ),
        ));
    };
    if !range.contains(&v) {
        return Some(error(
            422,
            format_args!(
                "vertex {v} outside shard {shard}'s vertex range ({}..{})",
                range.start, range.end
            ),
        ));
    }
    if on == Thread::Event && !row_fits(open, v) {
        return None;
    }
    // In range of an admitted resident shard, so the row exists. One
    // `CsrMap` method writes the body whatever the on-disk format: csr2
    // bytes verbatim (the fetcher validates them), v1 encoded on the fly.
    let mut body = Vec::new();
    if !open.reader.append_row_vd(v, &mut body) {
        return Some(error(500, "resident row unavailable"));
    }
    state.rows_served.fetch_add(1, Ordering::Relaxed);
    state
        .row_wire_bytes
        .fetch_add(body.len() as u64, Ordering::Relaxed);
    Some((200, http::ROW_VD_CONTENT_TYPE, body))
}

/// Most row entries the event thread reads for one `/rows` or
/// `/wedges` — a handful of short rows' worth: `Σ_v row_len_bound(v)` over
/// the vertices a `/rows` answers, `Σ_u (|row(v)| + row_len_bound(u))`
/// over the neighbours a `/wedges` merges. One pair of rows of at most
/// [`INLINE_ROW_CAP`] entries always fits.
const INLINE_MERGE_CAP: usize = 4 * INLINE_ROW_CAP;

/// Most row entries a pooled `/rows` answers past its first row — a
/// thousand inline answers' worth — so an ask as long as the request body
/// cap cannot make a node build a reply of its whole shard set; the asker
/// asks again for the rest.
const POOL_ROWS_CAP: usize = 1024 * INLINE_MERGE_CAP;

/// How many of the leading `costs` (row entries) fit `cap` together: the
/// prefix of a `/wedges` answered.
fn prefix_within(cap: usize, costs: impl IntoIterator<Item = usize>) -> usize {
    let mut total = 0;
    costs
        .into_iter()
        .take_while(|&cost| {
            total += cost;
            total <= cap
        })
        .count()
}

/// The resident shard of `v`, or the `404` refusing an ask about a
/// vertex this node does not hold — configuration skew between nodes.
/// `v` is below `n_C` (the ask was decoded against it), so some shard
/// owns it.
fn resident_shard(
    set: &kron_stream::ShardSet,
    v: u64,
) -> Result<&kron_stream::OpenShard, Response> {
    set.route(v)
        .and_then(|shard| set.local(shard))
        .ok_or_else(|| {
            let subset = set.subset();
            error(
                404,
                format_args!(
                    "vertex {v} is not resident on this node (serving shards {}..{})",
                    subset.start, subset.end
                ),
            )
        })
}

/// Longest `/rows` body the event thread decodes: [`INLINE_ROW_CAP`]
/// vertices at the ten bytes a varint takes at most.
const INLINE_ROWS_BODY: usize = 10 * INLINE_ROW_CAP;

/// `POST /rows` — the cluster-internal level fetch: the rows of the
/// asked vertices, each resident here, as one length-prefixed varint
/// delta row per answered vertex. Like `/row` it is not a query (it adds
/// each row to `rows_served`) and it calls no peer, whichever thread
/// answers it.
///
/// The event thread answers the longest prefix of the asked vertices
/// whose rows fit [`INLINE_MERGE_CAP`] entries and the caller asks again
/// for the rest; only an exchange whose first row is longer than
/// [`INLINE_ROW_CAP`] — one `/row` does not read inline either — or
/// whose body is longer than [`INLINE_ROWS_BODY`] goes to the pool, which
/// answers up to [`POOL_ROWS_CAP`] entries, and always the first row.
/// Only the answered prefix is routed and sized, so a vertex past it is
/// judged (resident, or `404`) when the caller asks again. The engine
/// asks about at most [`INLINE_ROW_CAP`] vertices at a time, so its
/// bodies always fit [`INLINE_ROWS_BODY`].
fn serve_rows(state: &ServerState<'_>, req: &http::Request, on: Thread) -> Option<Response> {
    let inline = on == Thread::Event;
    if inline && req.body.len() > INLINE_ROWS_BODY {
        return None;
    }
    let set = state.engine.shard_set();
    let asked = match parse_rows_ask(&req.body, set.num_vertices()) {
        Ok(asked) => asked,
        Err(e) => return Some(error(400, e)),
    };
    let cap = if inline {
        INLINE_MERGE_CAP
    } else {
        POOL_ROWS_CAP
    };
    // Route and size the asked vertices only as far as the answer goes:
    // the prefix ends before the first row that would pass `cap`, and
    // holds at least the first row.
    let (mut answer, mut bound) = (Vec::new(), 0);
    for &v in &asked {
        let open = match resident_shard(set, v) {
            Ok(open) => open,
            Err(refusal) => return Some(refusal),
        };
        let len = open.reader.row_len_bound(v).unwrap_or(0);
        if answer.is_empty() && inline && len > INLINE_ROW_CAP {
            return None;
        }
        if !answer.is_empty() && bound + len > cap {
            break;
        }
        bound += len;
        answer.push((v, open));
    }
    let answered = answer.len();
    // a csr2 row's bound is its byte length, a v1 row's its entry count:
    // the reply's size, or a floor under it, before the first copy
    let (mut body, mut row) = (Vec::with_capacity(bound + 2 * answered), Vec::new());
    for (v, open) in answer {
        // one CsrMap method writes the row: csr2 bytes verbatim, v1
        // encoded on the fly
        row.clear();
        if !open.reader.append_row_vd(v, &mut row) {
            return Some(error(500, "resident row unavailable"));
        }
        varint_push(row.len() as u64, &mut body);
        body.extend_from_slice(&row);
    }
    state
        .rows_served
        .fetch_add(answered as u64, Ordering::Relaxed);
    state
        .row_wire_bytes
        .fetch_add(body.len() as u64, Ordering::Relaxed);
    Some((200, http::ROWS_CONTENT_TYPE, body))
}

/// Longest `/wedges` body the event thread decodes: `row(v)` and the
/// asked list (a subset of it) of [`INLINE_ROW_CAP`] entries each, at the
/// ten bytes a varint takes at most, plus the two header varints.
const INLINE_WEDGES_BODY: usize = 2 * 10 * (INLINE_ROW_CAP + 1);

/// `POST /wedges` — the cluster-internal intersection: for each asked
/// neighbour `u` of the caller's `v`, `|N(u) ∩ N(v) \ {u, v}|` and the
/// merge's comparison count, `row(v)` from the body and `row(u)` off this
/// node's mapping. Like `/row` it is not a query (it bumps
/// `wedges_served`) and it calls no peer, whichever thread answers it.
///
/// The event thread answers the longest prefix of the asked neighbours
/// whose merges fit [`INLINE_MERGE_CAP`] and the caller asks again for the
/// rest; only an exchange whose first pair does not fit — a row longer
/// than `/row` reads inline — goes to the pool, which answers all of it.
/// So, as with `/row`, two nodes asking each other about short rows never
/// wait on each other's workers.
fn serve_wedges(state: &ServerState<'_>, req: &http::Request, on: Thread) -> Option<Response> {
    let inline = on == Thread::Event;
    if inline && req.body.len() > INLINE_WEDGES_BODY {
        return None;
    }
    let set = state.engine.shard_set();
    let ask = match WedgeAsk::parse(&req.body, set.num_vertices()) {
        Ok(ask) => ask,
        Err(e) => return Some(error(400, e)),
    };
    let shards: Result<Vec<_>, _> = ask.asked.iter().map(|&u| resident_shard(set, u)).collect();
    let shards = match shards {
        Ok(shards) => shards,
        Err(refusal) => return Some(refusal),
    };
    let mut answered = ask.asked.len();
    if inline {
        let merge = |(&u, open): (&u64, &&kron_stream::OpenShard)| {
            ask.row_v.len() + open.reader.row_len_bound(u).unwrap_or(0)
        };
        answered = prefix_within(INLINE_MERGE_CAP, ask.asked.iter().zip(&shards).map(merge));
        if answered == 0 && !ask.asked.is_empty() {
            return None;
        }
    }
    let (mut body, mut buf) = (Vec::with_capacity(4 * answered), Vec::new());
    for (&u, open) in ask.asked.iter().zip(shards).take(answered) {
        let Some(row_u) = open.reader.row_into(u, &mut buf) else {
            return Some(error(500, "resident row unavailable"));
        };
        let (count, checks) = slice::intersect_excluding(&ask.row_v, row_u, ask.v, u);
        varint_push(count, &mut body);
        varint_push(checks, &mut body);
    }
    state.wedges_served.fetch_add(1, Ordering::Relaxed);
    Some((200, http::WEDGES_CONTENT_TYPE, body))
}

/// `POST /batch`: every line answered in input order.
fn answer_batch(state: &ServerState<'_>, req: &http::Request) -> Response {
    let queries = match endpoints::parse_batch(req) {
        Err(refusal) => return refusal,
        Ok(queries) => queries,
    };
    // sequential on purpose: answers come back in input order by
    // construction, identical to `run_batch` output, and concurrency
    // comes from the connection pool rather than intra-batch fan-out
    let mut lines = String::new();
    for &q in &queries {
        let t0 = Instant::now();
        let (res, checks) = batch::answer(state.engine, q);
        state.record_query(t0.elapsed(), res.is_err(), checks);
        match res {
            Ok(a) => lines.push_str(&format!("{q} = {a}\n")),
            Err(e) => lines.push_str(&format!("{q} = error: {e}\n")),
        }
        // The request body is capped, but answers amplify (one
        // `neighbors <hub>` line can render thousands of ids); keep the
        // response bounded too instead of buffering gigabytes for one
        // request.
        if lines.len() > MAX_BATCH_RESPONSE {
            return endpoints::batch_too_large();
        }
    }
    (200, TEXT, lines.into_bytes())
}

/// `GET /jobs` (the listing: every job ever submitted, in submission
/// order, as {id, kernel, state} summaries — poll `/jobs/<id>` for result
/// documents) and `POST /jobs`.
fn route_jobs<'s>(
    state: &'s ServerState<'s>,
    scope: &'s std::thread::Scope<'s, '_>,
    req: &http::Request,
) -> Response {
    if req.method == "GET" {
        return json(200, state.jobs.list_json());
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error(400, "body is not UTF-8");
    };
    let spec = match Json::parse(text).and_then(|doc| kron_analyze::KernelSpec::from_json(&doc)) {
        Err(e) => return error(400, e),
        Ok(spec) => spec,
    };
    let kernel = spec.kernel.name();
    match state.jobs.submit(kernel, spec) {
        Err((running, cap)) => json(
            429,
            format_args!("{{\"error\":\"job pool is full\",\"running\":{running},\"cap\":{cap}}}"),
        ),
        Ok(entry) => {
            let id = entry.id;
            let engine = state.engine;
            let registry = &state.jobs;
            scope.spawn(move || crate::jobs::execute(engine, registry, &entry));
            json(
                202,
                format_args!("{{\"id\":{id},\"kernel\":\"{kernel}\",\"state\":\"running\"}}"),
            )
        }
    }
}

/// `GET`/`DELETE /jobs/<id>`. Precedence: the id must parse (400), the
/// job must exist (404), then the method must fit (405).
fn route_job(state: &ServerState<'_>, method: &str, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return error(400, "job id must be a decimal number");
    };
    let Some(job) = state.jobs.lookup(id) else {
        return error(404, format_args!("no job {id}"));
    };
    match method {
        "GET" => json(200, job.to_json()),
        "DELETE" => {
            // Idempotent: cancelling a finished (or already
            // cancelled) job re-raises a flag nobody reads.
            job.stop.store(true, Ordering::SeqCst);
            json(
                202,
                format_args!("{{\"id\":{id},\"cancel_requested\":true}}"),
            )
        }
        _ => endpoints::method_not_allowed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnswerSource, OpenOptions};
    use crate::http::Client;
    use kron::KronProduct;
    use kron_graph::Graph;
    use kron_stream::{stream_product, OutputFormat, StreamConfig};

    fn run_dir(name: &str) -> (std::path::PathBuf, KronProduct) {
        let a = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        run_dir_of(name, KronProduct::new(a.clone(), a))
    }

    /// `K_n` with a loop at every vertex: every row is the whole vertex set.
    fn complete_with_loops(n: usize) -> Graph {
        let n32 = n as u32;
        Graph::from_edges(n, (0..n32).flat_map(|i| (i..n32).map(move |j| (i, j))))
    }

    /// `c` streamed into two v1 shards.
    fn run_dir_of(name: &str, c: KronProduct) -> (std::path::PathBuf, KronProduct) {
        let dir =
            std::env::temp_dir().join(format!("kron_server_unit_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 2;
        stream_product(&c, &cfg).unwrap();
        (dir, c)
    }

    #[test]
    fn endpoints_answer_and_shutdown_is_graceful() {
        let (dir, c) = run_dir("endpoints");
        let engine = ServeEngine::open_verified(&dir).unwrap();
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        let report = std::thread::scope(|s| {
            let run = s.spawn(|| server.run(&engine, &ServerOptions::default(), &stop));
            let mut client = Client::connect(addr).unwrap();
            let (status, body) = client.get("/healthz").unwrap();
            assert_eq!((status, body.as_str()), (200, "ok\n"));

            let (status, body) = client.get("/query?q=degree%205").unwrap();
            assert_eq!(status, 200);
            assert_eq!(body.trim().parse::<u64>().unwrap(), c.degree(5));

            // parse error → 400; engine error (out of range) → 422
            let (status, body) = client.get("/query?q=frobnicate%201").unwrap();
            assert_eq!(status, 400, "{body}");
            let oob = format!("/query?q=degree%20{}", c.num_vertices());
            let (status, body) = client.get(&oob).unwrap();
            assert_eq!(status, 422, "{body}");
            assert!(body.contains("outside all shard row ranges"), "{body}");

            let (status, body) = client
                .post(
                    "/batch",
                    b"degree 0\ntri_vertex 5\n# comment\nhas_edge 0 5\n",
                )
                .unwrap();
            assert_eq!(status, 200);
            let lines: Vec<&str> = body.lines().collect();
            assert_eq!(lines.len(), 3);
            assert_eq!(lines[0], format!("degree 0 = {}", c.degree(0)));
            assert_eq!(
                lines[1],
                format!("tri_vertex 5 = {}", c.vertex_triangles(5))
            );

            let (status, body) = client.get("/stats").unwrap();
            assert_eq!(status, 200);
            let doc = Json::parse(&body).unwrap();
            // 1 good /query + 1 engine-err /query + 3 batch lines = 5
            // queries; the parse-failed /query (400) never reached the
            // engine, so it counts as a bad request, not a query error
            assert_eq!(doc.req("queries").unwrap().as_u64(), Some(5));
            assert_eq!(doc.req("errors").unwrap().as_u64(), Some(1));
            assert_eq!(doc.req("bad_requests").unwrap().as_u64(), Some(1));
            assert_eq!(doc.req("mismatch_count").unwrap().as_u64(), Some(0));
            assert!(doc.req("recent").unwrap().get("p99").is_none()); // QueryStats names it p99_us
            assert!(doc.req("recent").unwrap().get("p99_us").is_some());
            assert!(doc.req("routing").unwrap().get("shard_fetches").is_some());

            let (status, body) = client.get("/nope").unwrap();
            assert_eq!(status, 501, "unknown paths get the endpoint inventory");
            assert!(body.contains("\"/path\"") && body.contains("\"/khop\""));
            let (status, _) = client.post("/healthz", b"").unwrap();
            assert_eq!(status, 405);
            let (status, _) = client.post("/path", b"").unwrap();
            assert_eq!(status, 405);

            stop.store(true, Ordering::SeqCst);
            run.join().unwrap().unwrap()
        });
        assert_eq!(report.queries, 5);
        assert_eq!(report.query_errors, 1);
        assert_eq!(report.bad_requests, 1);
        assert_eq!(report.mismatches, 0);
        assert!(report.requests >= 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// With the pool's only worker held inside a request, everything in
    /// the bounded set still answers — on the event thread — and a
    /// triangle query sent meanwhile waits for the worker.
    #[test]
    fn bounded_requests_answer_while_the_only_worker_is_held() {
        use crate::event_loop::tests::{wait_until, Gate, StopOnDrop};
        use std::io::{Read, Write};

        let (dir, c) = run_dir("held_worker");
        let engine = ServeEngine::open_verified(&dir).unwrap();
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let opts = ServerOptions {
            threads: 1,
            ..Default::default()
        };
        let state = ServerState::new(&engine, &opts);
        let (gate, stop) = (Gate::new(), AtomicBool::new(false));
        let path_counts = || {
            let conns = &state.http.conns;
            (
                conns.inline.load(Ordering::Relaxed),
                conns.pooled.load(Ordering::Relaxed),
            )
        };
        std::thread::scope(|scope| {
            let client = scope.spawn(|| {
                let _stop = StopOnDrop(&stop, &gate);
                let mut held = std::net::TcpStream::connect(addr).unwrap();
                held.write_all(b"GET /hold HTTP/1.1\r\n\r\n").unwrap();
                gate.wait_entered(1);
                assert_eq!(path_counts(), (0, 1));

                let mut client = Client::connect(addr).unwrap();
                assert_eq!(client.get("/healthz").unwrap(), (200, "ok\n".into()));
                let (status, body) = client.get("/query?q=degree%205").unwrap();
                assert_eq!((status, body), (200, format!("{}\n", c.degree(5))));
                let (status, body) = client.get("/query?q=has_edge%200%205").unwrap();
                assert_eq!((status, body), (200, format!("{}\n", c.has_edge(0, 5))));
                let (status, body) = client.get("/query?q=neighbors%205").unwrap();
                let row: Vec<String> = c.neighbors(5).iter().map(u64::to_string).collect();
                assert_eq!((status, body), (200, format!("{}\n", row.join(" "))));
                let (status, bytes) = client.get_bytes("/row?shard=0&v=0").unwrap();
                let mut row = Vec::new();
                assert!(status == 200 && kron_stream::decode_row_vd(&bytes, &mut row));
                assert_eq!(row, c.neighbors(0));
                assert_eq!(path_counts(), (5, 1), "all five answered inline");

                // a triangle query is not bounded: it queues behind the
                // held request and gets no answer until the worker is back
                let mut tri = std::net::TcpStream::connect(addr).unwrap();
                tri.write_all(b"GET /query?q=tri_vertex%205 HTTP/1.1\r\nConnection: close\r\n\r\n")
                    .unwrap();
                wait_until(|| path_counts() == (5, 2));
                tri.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                let early = tri.read(&mut [0u8; 1]).unwrap_err();
                assert!(
                    matches!(
                        early.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ),
                    "{early}"
                );
                gate.release();
                tri.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut answer = String::new();
                tri.read_to_string(&mut answer).unwrap();
                let want = format!("\r\n\r\n{}\n", c.vertex_triangles(5));
                assert!(answer.ends_with(&want), "{answer}");
                assert_eq!(state.queries.load(Ordering::Relaxed), 4);
            });
            serve_connections(
                &server.listener,
                &opts.loop_config(),
                "test",
                &stop,
                &state.http,
                &|req, on| {
                    if req.path == "/hold" {
                        return (on == Thread::Pool).then(|| {
                            gate.hold();
                            (200, TEXT, b"released\n".to_vec())
                        });
                    }
                    route(&state, scope, req, on)
                },
            );
            client.join().unwrap();
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two nodes, one worker each, both workers held: triangle queries
    /// that need the other node's rows still complete, because a bounded
    /// `/wedges` is answered on the peer's event thread and never waits
    /// for its pool — nor calls back.
    #[test]
    fn bounded_wedges_answer_while_both_nodes_hold_their_only_worker() {
        let (dir, c) = run_dir("held_wedges");
        let every: Vec<u64> = (0..c.num_vertices()).collect();
        for [inline, pooled, wedges] in tri_vertex_with_both_workers_held(&dir, &every) {
            assert_eq!(pooled, 1, "only the held request reached the pool");
            assert!(
                wedges > 0 && inline == wedges,
                "{inline} inline, {wedges} wedges"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same with a hub: its far neighbours' merges outgrow
    /// `INLINE_MERGE_CAP`, so each peer's event thread answers them a
    /// prefix at a time and the querying node asks again for the rest —
    /// still no `/wedges` reaches a pool.
    #[test]
    fn hub_wedges_answer_in_prefixes_while_both_nodes_hold_their_only_worker() {
        // (K15 + I) ⊗ (K14 + I) is K210 with every loop: 210 entries a
        // row, and the ~100 neighbours a vertex has on the other node
        // merge ~100 · 420 entries, more than twice the cap
        let full = complete_with_loops;
        let (dir, c) = run_dir_of("held_hub_wedges", KronProduct::new(full(15), full(14)));
        let hubs = [0, c.num_vertices() - 1];
        for [inline, pooled, wedges] in tri_vertex_with_both_workers_held(&dir, &hubs) {
            assert_eq!(pooled, 1, "only the held request reached the pool");
            assert_eq!(inline, wedges, "every /wedges answered inline");
            assert!(wedges >= 3, "one hub query took {wedges} exchanges");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two nodes, one worker each, both workers held: every `/path` and
    /// `/khop`, asked of either node, completes with frontiers on both
    /// nodes, because a bounded `/rows` is answered on the peer's event
    /// thread — a hub level a prefix at a time — and never waits for its
    /// pool, nor calls back.
    #[test]
    fn bounded_rows_answer_while_both_nodes_hold_their_only_worker() {
        let (dir, c) = run_dir("held_rows");
        let n = c.num_vertices();
        let grid = both_workers_held(&dir, |whole, engines| {
            let want = PathFinder::new(whole);
            for node in engines {
                let got = PathFinder::new(node);
                for (from, to) in (0..n).flat_map(|from| (0..n).map(move |to| (from, to))) {
                    let path = |f: &PathFinder<'_>| {
                        let answer = f.shortest_path(from, to, None).unwrap();
                        answer.to_json().to_string()
                    };
                    assert_eq!(path(&got), path(&want), "/path {from} {to}");
                }
                for (v, k) in (0..n).flat_map(|v| (1..=3).map(move |k| (v, k))) {
                    let khop = |f: &PathFinder<'_>| f.khop(v, k).unwrap().to_json().to_string();
                    assert_eq!(khop(&got), khop(&want), "/khop {v} {k}");
                }
            }
        });
        // (K15 + I) ⊗ (K14 + I): the second level of a 2-hop is every
        // vertex, ~105 far rows of 210 entries — more than the cap
        let full = complete_with_loops;
        let (hub_dir, hub) = run_dir_of("held_hub_rows", KronProduct::new(full(15), full(14)));
        let hubs = [0, hub.num_vertices() - 1];
        let hub_grid = both_workers_held(&hub_dir, |whole, engines| {
            for (node, v) in engines.iter().flat_map(|e| hubs.map(|v| (e, v))) {
                let khop = |e| PathFinder::new(e).khop(v, 2).unwrap().to_json().to_string();
                assert_eq!(khop(node), khop(whole), "/khop {v} 2");
            }
        });
        for (counts, min_asked) in [(grid, 1), (hub_grid, 4)] {
            // a node's exchanges are the ones its peer sent
            for (mine, peers) in [(counts[0], counts[1]), (counts[1], counts[0])] {
                let ([inline, pooled, wedges, _], asked) = (mine, peers[3]);
                assert_eq!((pooled, wedges), (1, 0), "only the held request was pooled");
                assert!(asked >= min_asked, "{asked} /rows exchanges");
                assert_eq!(inline, asked, "every /rows answered inline");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&hub_dir).ok();
    }

    /// A level of more far vertices than one `/rows` body the event thread
    /// decodes can name is asked a chunk at a time, so it too is answered
    /// inline while both nodes hold their only worker.
    #[test]
    fn long_levels_are_asked_in_bodies_the_event_thread_decodes() {
        // (K_{1,250} + I) ⊗ (K_{1,250} + I): the hub (0, 0) reaches every
        // vertex in one hop, and every other row is at most 502 entries,
        // so its second level asks the other node for ~47k short rows
        let star = |n: u32| {
            Graph::from_edges(
                n as usize,
                (0..n).map(|i| (i, i)).chain((1..n).map(|j| (0, j))),
            )
        };
        let (dir, c) = run_dir_of("held_long_level", KronProduct::new(star(251), star(251)));
        let n = c.num_vertices();
        let counts = both_workers_held(&dir, |whole, engines| {
            let far = n - engines[0].shard_set().subset_vertices().end;
            assert!(far > INLINE_ROWS_BODY as u64, "{far} far vertices");
            let khop = |e| PathFinder::new(e).khop(0, 2).unwrap().to_json().to_string();
            assert_eq!(khop(&engines[0]), khop(whole), "/khop 0 2");
        });
        let ([_, _, _, asked], [inline, pooled, wedges, _]) = (counts[0], counts[1]);
        assert_eq!((pooled, wedges), (1, 0), "only the held request was pooled");
        assert!(
            asked > (n / INLINE_ROW_CAP as u64) / 2,
            "{asked} /rows exchanges"
        );
        assert_eq!(inline, asked, "every /rows answered inline");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hold both nodes' only worker and ask each of `vertices`' owning
    /// node for `tri_vertex`, checked against the whole run. Returns each
    /// node's `[inline, pooled, wedges_served]` after the queries.
    fn tri_vertex_with_both_workers_held(dir: &std::path::Path, vertices: &[u64]) -> [[u64; 3]; 2] {
        let counts = both_workers_held(dir, |whole, engines| {
            for &v in vertices {
                let home = engines
                    .iter()
                    .find(|e| e.shard_set().subset_vertices().contains(&v))
                    .unwrap();
                let want = whole.vertex_triangles_with_checks(v).unwrap();
                assert_eq!(home.vertex_triangles_with_checks(v).unwrap(), want, "{v}");
            }
        });
        counts.map(|[inline, pooled, wedges, _]| [inline, pooled, wedges])
    }

    /// Open `dir`'s two shards as two nodes peering with each other,
    /// serve them with one worker each, hold both workers, then run `ask`
    /// on the whole run's engine and the two nodes'. Returns each node's
    /// `[inline, pooled, wedges_served, remote_fetches]` after it — the
    /// last the exchanges that node sent its peer.
    fn both_workers_held(
        dir: &std::path::Path,
        ask: impl Fn(&ServeEngine, &[ServeEngine; 2]) + Sync,
    ) -> [[u64; 4]; 2] {
        use crate::event_loop::tests::{Gate, StopOnDrop};
        use std::io::Write;

        let whole = ServeEngine::open_verified(dir).unwrap();
        let servers = [0, 1].map(|_| Server::bind("127.0.0.1:0").unwrap());
        let addrs = servers.each_ref().map(|s| s.local_addr().unwrap());
        let engines = [0usize, 1].map(|i| {
            let peer = format!("{}..{}={}", 1 - i, 2 - i, addrs[1 - i]);
            ServeEngine::open_with(
                dir,
                &OpenOptions {
                    shard_subset: Some(i..i + 1),
                    peers: vec![crate::PeerSpec::parse(&peer).unwrap()],
                    ..OpenOptions::default()
                },
            )
            .unwrap()
        });
        let opts = ServerOptions {
            threads: 1,
            ..Default::default()
        };
        let states = engines.each_ref().map(|e| ServerState::new(e, &opts));
        let (gate, stop) = (Gate::new(), AtomicBool::new(false));
        let counts = |s: &ServerState<'_>| {
            let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
            let conns = &s.http.conns;
            [
                load(&conns.inline),
                load(&conns.pooled),
                load(&s.wedges_served),
                s.engine.routing().remote_fetches,
            ]
        };
        std::thread::scope(|scope| {
            let client = scope.spawn(|| {
                let _stop = StopOnDrop(&stop, &gate);
                let held = addrs.map(|addr| {
                    let mut held = std::net::TcpStream::connect(addr).unwrap();
                    held.write_all(b"GET /hold HTTP/1.1\r\n\r\n").unwrap();
                    held
                });
                gate.wait_entered(2);
                ask(&whole, &engines);
                let after = states.each_ref().map(counts);
                drop(held);
                after
            });
            for (server, state) in servers.iter().zip(&states) {
                let (stop, gate, opts) = (&stop, &gate, &opts);
                scope.spawn(move || {
                    serve_connections(
                        &server.listener,
                        &opts.loop_config(),
                        "test",
                        stop,
                        &state.http,
                        &|req, on| {
                            if req.path == "/hold" {
                                return (on == Thread::Pool).then(|| {
                                    gate.hold();
                                    (200, TEXT, b"released\n".to_vec())
                                });
                            }
                            route(state, scope, req, on)
                        },
                    )
                });
            }
            client.join().unwrap()
        })
    }

    #[test]
    fn malformed_framing_gets_400_and_close() {
        let (dir, _c) = run_dir("framing");
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
            use std::io::{Read, Write};
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
            let mut resp = String::new();
            raw.read_to_string(&mut resp).unwrap(); // server closes after 400
            assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
            stop.store(true, Ordering::SeqCst);
            let report = run.join().unwrap().unwrap();
            assert_eq!(report.bad_requests, 1);
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn row_and_shards_endpoints_speak_the_cluster_protocol() {
        let (dir, c) = run_dir("cluster_endpoints");
        let engine = ServeEngine::open_with(
            &dir,
            &OpenOptions {
                shard_subset: Some(0..1),
                peers: vec![crate::PeerSpec::parse("1..2=127.0.0.1:1").unwrap()],
                ..OpenOptions::default()
            },
        )
        .unwrap();
        let set = engine.shard_set();
        let span = set.subset_vertices();
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        let report = std::thread::scope(|s| {
            let run = s.spawn(|| server.run(&engine, &ServerOptions::default(), &stop));
            let mut client = Client::connect(addr).unwrap();

            // /shards: the node's slice of the ownership map
            let (status, body) = client.get("/shards").unwrap();
            assert_eq!(status, 200);
            let doc = Json::parse(&body).unwrap();
            assert_eq!(doc.req("shards").unwrap().as_u64(), Some(2));
            assert_eq!(
                doc.req("subset").unwrap().as_arr().unwrap()[1].as_u64(),
                Some(1)
            );
            assert_eq!(doc.req("vertex_lo").unwrap().as_u64(), Some(span.start));
            assert_eq!(doc.req("vertex_hi").unwrap().as_u64(), Some(span.end));
            assert_eq!(
                doc.req("num_vertices").unwrap().as_u64(),
                Some(c.num_vertices())
            );

            // /row: a resident row comes back varint delta encoded, and
            // says so in its Content-Type, whatever `enc` asks for
            let v = span.start;
            let mut want = Vec::new();
            kron_stream::encode_row_vd(&c.neighbors(v), &mut want);
            for enc in ["", "&enc=vd", "&enc=zstd"] {
                let path = format!("/row?shard=0&v={v}{enc}");
                let (status, ctype, body) = client.request_typed("GET", &path, b"").unwrap();
                assert_eq!(
                    (status, ctype.as_str()),
                    (200, http::ROW_VD_CONTENT_TYPE),
                    "{path}"
                );
                assert_eq!(body, want, "{path}");
            }

            // non-resident shard → 404; out-of-shard vertex → 422;
            // malformed → 400; unknown shard → 404
            let (status, body) = client.get(&format!("/row?shard=1&v={}", span.end)).unwrap();
            assert_eq!(status, 404, "{body}");
            assert!(body.contains("not resident"), "{body}");
            let (status, body) = client.get(&format!("/row?shard=0&v={}", span.end)).unwrap();
            assert_eq!(status, 422, "{body}");
            let (status, _) = client.get("/row?shard=0").unwrap();
            assert_eq!(status, 400);
            let (status, body) = client.get("/row?shard=9&v=0").unwrap();
            assert_eq!(status, 404, "{body}");
            assert!(body.contains("no shard 9"), "{body}");
            let (status, _) = client.post("/row", b"").unwrap();
            assert_eq!(status, 405);

            stop.store(true, Ordering::SeqCst);
            run.join().unwrap().unwrap()
        });
        assert_eq!(report.rows_served, 3, "only the 200 fetches count");
        assert!(
            report.row_wire_bytes >= 3 * c.neighbors(span.start).len() as u64,
            "wire bytes cover three bodies: {}",
            report.row_wire_bytes
        );
        assert_eq!(report.queries, 0, "/row is not a query");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A prefix stops before the first cost that would pass the cap; a
    /// first cost over the cap answers nothing, which `/wedges` sends to
    /// the pool and a pooled `/rows` raises to its first row.
    #[test]
    fn prefixes_stop_before_the_cap() {
        for (cap, want) in [(12, 3), (11, 2), (7, 2), (6, 1), (2, 0)] {
            assert_eq!(prefix_within(cap, [3, 4, 5]), want, "cap {cap}");
        }
        assert_eq!(prefix_within(0, []), 0);
    }

    /// What the querying node sends is what the answering node decodes:
    /// `RemoteShards::rows` against a live node gets that node's rows
    /// back, and the node refuses every body that breaks the spec.
    #[test]
    fn rows_requests_roundtrip_and_bad_bodies_are_refused() {
        let (dir, c) = run_dir("rows_roundtrip");
        let n = c.num_vertices();
        let engine = ServeEngine::open_with(
            &dir,
            &OpenOptions {
                shard_subset: Some(0..1),
                peers: vec![crate::PeerSpec::parse("1..2=127.0.0.1:1").unwrap()],
                ..OpenOptions::default()
            },
        )
        .unwrap();
        let span = engine.shard_set().subset_vertices();
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        let asked: Vec<u64> = span.clone().step_by(2).collect();
        let report = std::thread::scope(|s| {
            let run = s.spawn(|| server.run(&engine, &ServerOptions::default(), &stop));
            // the asking side of the other node: shard 0 lives at `addr`
            let peer = crate::PeerSpec::parse(&format!("0..1={addr}")).unwrap();
            let timeout = crate::cluster::DEFAULT_PEER_TIMEOUT;
            let remote = crate::cluster::RemoteShards::new(&[peer], 1..2, 2, n, timeout).unwrap();
            let rows = remote.rows(remote.replicas(0), &asked).unwrap();
            let want: Vec<Vec<u64>> = asked.iter().map(|&v| c.neighbors(v)).collect();
            assert_eq!(crate::cluster::tests::decoded(&rows), want);

            let vd = |vertices: &[u64]| {
                let mut body = Vec::new();
                kron_stream::encode_row_vd(vertices, &mut body);
                body
            };
            let refused = [
                (
                    "repeated vertex",
                    vec![3, 0],
                    400,
                    "not a strictly ascending",
                ),
                (
                    "truncated varint",
                    vec![0x80],
                    400,
                    "not a strictly ascending",
                ),
                ("vertex n_C", vd(&[0, n]), 400, &*format!("has only {n}")),
                ("not resident here", vd(&[0, span.end]), 404, "not resident"),
            ];
            let mut client = Client::connect(addr).unwrap();
            for (what, body, status, says) in refused {
                let (got, _, reply) = client.request_typed("POST", "/rows", &body).unwrap();
                let reply = String::from_utf8(reply).unwrap();
                assert_eq!(got, status, "{what}: {reply}");
                assert!(reply.contains(says), "{what}: {reply}");
            }
            stop.store(true, Ordering::SeqCst);
            run.join().unwrap().unwrap()
        });
        assert_eq!(report.rows_served, asked.len() as u64);
        assert_eq!(report.queries, 0, "/rows is not a query");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampled_source_reports_through_stats_endpoint() {
        let (dir, c) = run_dir("sampled_stats");
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
                        threads: 1,
                        ..Default::default()
                    },
                    &stop,
                )
            });
            let mut client = Client::connect(addr).unwrap();
            let mut batch = String::new();
            for v in 0..c.num_vertices() {
                batch.push_str(&format!("degree {v}\n"));
            }
            let (status, _) = client.post("/batch", batch.as_bytes()).unwrap();
            assert_eq!(status, 200);
            let (_, body) = client.get("/stats").unwrap();
            let doc = Json::parse(&body).unwrap();
            assert_eq!(doc.req("source").unwrap().as_str(), Some("cross-check"));
            assert_eq!(
                doc.req("sampled_checks").unwrap().as_u64(),
                Some(c.num_vertices())
            );
            assert_eq!(doc.req("mismatch_count").unwrap().as_u64(), Some(0));
            stop.store(true, Ordering::SeqCst);
            run.join().unwrap().unwrap();
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}

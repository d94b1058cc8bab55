//! The stateless forwarding router: one address in front of a cluster of
//! shard-subset nodes, speaking the **unchanged single-node wire
//! protocol** to clients.
//!
//! `kron route --peers ADDR,ADDR,… --listen ADDR` owns no shards, opens
//! no run directory, and keeps no query state — it learns each peer's
//! claimed vertex range at startup (`GET /shards`), validates that the
//! claims **cover** the whole product (overlapping claims are
//! **replicas**), and then:
//!
//! * forwards `GET /query` to a node owning the query's routing vertex
//!   ([`crate::Query::routing_vertex`]), rotating round-robin over the
//!   vertex's replicas, and relays the answer verbatim;
//! * splits `POST /batch` bodies into one sub-batch per replica set,
//!   forwards each with failover, and reassembles the answer lines **in
//!   input order** — byte-identical to what one node serving the whole
//!   run directory would produce;
//! * merges `GET /stats` across peers (per-peer documents plus summed
//!   totals and per-replica health; see `ARCHITECTURE.md` § "Cluster
//!   serving" for the normative merge rules);
//! * fans `GET /healthz` out to every peer (`ok` only when all are).
//!
//! A failed forward (connect error, timeout, 5xx, short sub-batch
//! response) transparently **fails over** to the next replica, and
//! health ejection works exactly as on the nodes — literally: pooling,
//! the stale-connection retry, rotation, failover, ejection, and probing
//! are `replica.rs`, the single implementation both tiers call — `/query`,
//! each `/batch` sub-batch, and the traversals alike. What is left here
//! is discovery, the table swap, the `/batch` split, and the `/stats`
//! merge. Only when *every* replica of a vertex has failed does
//! the client see an error: a single `502 Bad Gateway` naming each
//! replica tried — the router never invents an answer. Parse errors
//! (`400`) come from the same parser the nodes use (`endpoints.rs`), so
//! clients cannot tell a router from a node on the error path either.
//!
//! With `--rediscover SECS` ([`Router::set_rediscover`]) the router
//! re-runs discovery on a timer, so nodes can join/leave a live cluster:
//! a returning node is restored the moment it answers `/shards`, a
//! vanished one keeps its last-known claim (health-ejected until it
//! probes healthy), and a table that would leave a shard uncovered is
//! rejected, keeping the last good one.
//!
//! ## Example
//!
//! ```no_run
//! use kron_serve::{Router, Server, ServerOptions};
//! use std::sync::atomic::AtomicBool;
//! use std::time::Duration;
//!
//! // Three nodes already serve (overlapping) shard subsets.
//! let mut router = Router::discover(
//!     &["10.0.0.1:8080".into(), "10.0.0.2:8080".into(), "10.0.0.3:8080".into()],
//!     Duration::from_secs(5),
//! )
//! .unwrap();
//! router.set_rediscover(Duration::from_secs(10));
//! let front = Server::bind("0.0.0.0:8080").unwrap();
//! let stop = AtomicBool::new(false);
//! let report = router
//!     .run(&front, &ServerOptions::default(), &stop)
//!     .unwrap();
//! println!("{report}");
//! ```

use crate::batch::Query;
use crate::endpoints::{
    self, error, json, Endpoint, Point, Response, Tier, MAX_BATCH_RESPONSE, TEXT,
};
use crate::event_loop::{serve_connections, Thread};
use crate::http::{self, Client};
use crate::replica::{failover, first_uncovered, now_ms, Attempt, Method, Peer, Reply};
use crate::server::{LoopCounters, Server, ServerOptions};
use kron_stream::json::Json;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// One peer's parsed `GET /shards` answer: its shard claim, vertex
/// span, the run shape `(shards, num_vertices)`, and the connection the
/// exchange left open (seeded into the peer's pool).
type Discovered = (Range<usize>, Range<u64>, (u64, u64), Client);

/// One discovered peer: the shared transport [`Peer`] (address, shard
/// claim, pool, health) plus the vertex span the router routes by.
struct RouterPeer {
    peer: Peer,
    vertices: Range<u64>,
}

/// The framed `(status, body)` of one forward, body as (lossy) text.
type Forwarded = Result<(u16, String), String>;

/// Every answer the router relays or merges is text: read a framed reply
/// as `(status, lossy UTF-8 body)`.
fn text((status, _ctype, body): Reply) -> (u16, String) {
    (status, String::from_utf8_lossy(&body).into_owned())
}

/// One immutable routing table: the discovered peers of one
/// (re-)discovery round. Handlers snapshot it per request, so a
/// concurrent re-discovery swap never tears a request in half.
struct RouterTable {
    /// Ascending by claim (then address) — the `/stats` peer order.
    peers: Vec<Arc<RouterPeer>>,
    num_vertices: u64,
    num_shards: usize,
}

impl RouterTable {
    /// Indices of the peers whose claim contains `v` — the vertex's
    /// replicas. Out-of-range vertices go to the replicas of the first
    /// vertex range: their engines produce the exact out-of-range error a
    /// single-node server would, keeping the client-visible bytes
    /// identical. `/query` and `/batch` both route through here, so the
    /// policy cannot diverge between them.
    fn candidates_for(&self, v: u64) -> Vec<usize> {
        let own: Vec<usize> = self
            .peers
            .iter()
            .enumerate()
            .filter(|(_, p)| p.vertices.contains(&v))
            .map(|(i, _)| i)
            .collect();
        if !own.is_empty() {
            return own;
        }
        self.peers
            .iter()
            .enumerate()
            .filter(|(_, p)| p.vertices.start == 0)
            .map(|(i, _)| i)
            .collect()
    }

    fn addr_list(&self) -> String {
        self.peers
            .iter()
            .map(|p| p.peer.addr.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Totals of one router run, returned by [`Router::run`] after shutdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouterReport {
    /// HTTP requests handled (all endpoints).
    pub requests: u64,
    /// Requests rejected as malformed (bad framing, bad query syntax).
    pub bad_requests: u64,
    /// Query lines forwarded to peers (each `/query`, plus each line of
    /// every `/batch`).
    pub queries: u64,
    /// Forwards that failed on **every** replica (the client saw a 502).
    pub forward_errors: u64,
    /// Single-replica failures that moved a forward on to the next
    /// replica (the client saw nothing).
    pub failovers: u64,
}

impl std::fmt::Display for RouterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests ({} malformed), {} queries forwarded, {} failovers, \
             {} forward errors",
            self.requests, self.bad_requests, self.queries, self.failovers, self.forward_errors
        )
    }
}

/// Per-run router state shared by connection handlers.
struct RouterState<'r> {
    router: &'r Router,
    started: Instant,
    http: LoopCounters,
    queries: AtomicU64,
    forward_errors: AtomicU64,
}

/// A replica-aware query router over a set of shard-subset nodes.
///
/// Build one with [`Router::discover`], optionally enable periodic
/// re-discovery with [`Router::set_rediscover`], then drive it with
/// [`Router::run`] over a bound [`Server`] listener.
pub struct Router {
    table: RwLock<Arc<RouterTable>>,
    /// The `--peers` list as given — re-discovery re-contacts these.
    peer_addrs: Vec<String>,
    timeout: Duration,
    rediscover: Option<Duration>,
    /// Round-robin cursor over replicas.
    rr: AtomicUsize,
    /// Failovers survive table swaps (per-peer counters reset when a
    /// peer's claim changes), so `/stats` never under-reports them.
    failovers: AtomicU64,
    rediscoveries: AtomicU64,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("peers", &self.peer_summary())
            .field("num_vertices", &self.num_vertices())
            .finish()
    }
}

impl Router {
    /// Contact every peer's `GET /shards` once and build the routing
    /// table. Peers may be listed in any order; their claims must
    /// **cover** the whole product — overlapping claims are replicas.
    ///
    /// # Errors
    ///
    /// A message naming the offending peer when one is unreachable,
    /// answers malformed JSON, or disagrees with the others on the run's
    /// shape (`shards` / `num_vertices`); or naming the first uncovered
    /// shard when the claims leave a gap.
    pub fn discover(peer_addrs: &[String], timeout: Duration) -> Result<Router, String> {
        let table = Self::build_table(peer_addrs, timeout, None)?;
        Ok(Router {
            table: RwLock::new(Arc::new(table)),
            peer_addrs: peer_addrs.to_vec(),
            timeout,
            rediscover: None,
            rr: AtomicUsize::new(0),
            failovers: AtomicU64::new(0),
            rediscoveries: AtomicU64::new(0),
        })
    }

    /// Re-run discovery every `every` during [`Router::run`], so nodes
    /// can join/leave the cluster without a router restart.
    pub fn set_rediscover(&mut self, every: Duration) {
        self.rediscover = Some(every);
    }

    /// Completed re-discovery rounds (table swaps).
    pub fn rediscoveries(&self) -> u64 {
        self.rediscoveries.load(Ordering::Relaxed)
    }

    /// One peer's `GET /shards` exchange, parsed.
    fn discover_one(addr: &str, timeout: Duration) -> Result<Discovered, String> {
        let fail = |detail: String| format!("peer {addr}: {detail}");
        let mut client =
            Client::connect_timeout(addr, timeout).map_err(|e| fail(format!("connect: {e}")))?;
        let (status, body) = client
            .get("/shards")
            .map_err(|e| fail(format!("GET /shards: {e}")))?;
        if status != 200 {
            return Err(fail(format!("GET /shards answered {status}")));
        }
        let doc = Json::parse(&body).map_err(|e| fail(format!("/shards JSON: {e}")))?;
        let num = |key: &str| -> Result<u64, String> {
            doc.req(key)
                .and_then(|v| v.as_u64().ok_or_else(|| format!("{key} is not an integer")))
                .map_err(|e| fail(format!("/shards: {e}")))
        };
        let subset = doc
            .req("subset")
            .ok()
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 2)
            .and_then(|a| Some((a[0].as_usize()?, a[1].as_usize()?)))
            .ok_or_else(|| fail("/shards: subset is not [lo, hi]".into()))?;
        let shape = (num("shards")?, num("num_vertices")?);
        Ok((
            subset.0..subset.1,
            num("vertex_lo")?..num("vertex_hi")?,
            shape,
            client,
        ))
    }

    /// Build a routing table from `peer_addrs`. At startup (`prev` is
    /// `None`) every peer must answer; during re-discovery an unreachable
    /// peer keeps its last-known claim (still health-ejected) and a
    /// never-seen one is skipped, so a flapping node cannot take the
    /// router down with it.
    fn build_table(
        peer_addrs: &[String],
        timeout: Duration,
        prev: Option<&RouterTable>,
    ) -> Result<RouterTable, String> {
        if peer_addrs.is_empty() {
            return Err("router needs at least one peer".into());
        }
        let mut peers: Vec<Arc<RouterPeer>> = Vec::with_capacity(peer_addrs.len());
        let mut shape: Option<(u64, u64)> = prev.map(|t| (t.num_shards as u64, t.num_vertices));
        for addr in peer_addrs {
            match Self::discover_one(addr, timeout) {
                Ok((shards, vertices, this_shape, client)) => {
                    match shape {
                        None => shape = Some(this_shape),
                        Some(expect) if expect != this_shape => {
                            return Err(format!(
                                "peer {addr}: serves a different run ({} shards / {} \
                                 vertices, expected {} / {})",
                                this_shape.0, this_shape.1, expect.0, expect.1
                            ))
                        }
                        Some(_) => {}
                    }
                    // An unchanged claim keeps its pool, health, and
                    // counters; answering /shards is also proof of life,
                    // restoring an ejected peer.
                    let reused = prev.and_then(|t| {
                        t.peers
                            .iter()
                            .find(|p| {
                                p.peer.addr == *addr
                                    && p.peer.shards == shards
                                    && p.vertices == vertices
                            })
                            .cloned()
                    });
                    let p = reused.unwrap_or_else(|| {
                        Arc::new(RouterPeer {
                            peer: Peer::new(addr.clone(), addr.clone(), shards, timeout),
                            vertices,
                        })
                    });
                    p.peer.health.record_success();
                    p.peer.pool_push(client);
                    peers.push(p);
                }
                Err(e) => {
                    let carried =
                        prev.and_then(|t| t.peers.iter().find(|p| p.peer.addr == *addr).cloned());
                    match carried {
                        Some(p) => peers.push(p),
                        None if prev.is_none() => return Err(e),
                        None => {} // a joining node that is not up yet
                    }
                }
            }
        }
        let (num_shards, num_vertices) =
            shape.ok_or_else(|| "no peer answered GET /shards".to_string())?;
        let num_shards = num_shards as usize;
        peers.sort_by(|a, b| {
            let key = |p: &'_ RouterPeer| (p.peer.shards.start, p.peer.shards.end);
            (key(a), &a.peer.addr).cmp(&(key(b), &b.peer.addr))
        });
        // The claims must cover the run; overlap is replication.
        if let Some(s) = first_uncovered(num_shards, peers.iter().map(|p| p.peer.shards.clone())) {
            return Err(format!(
                "cluster ownership map incomplete: shard {s} is not claimed \
                 by any --peers node (a node is missing from --peers)"
            ));
        }
        Ok(RouterTable {
            peers,
            num_vertices,
            num_shards,
        })
    }

    /// Current table snapshot (cheap: one `Arc` clone under a read lock).
    fn table(&self) -> Arc<RouterTable> {
        self.table.read().unwrap().clone()
    }

    /// One re-discovery round: build a fresh table from the configured
    /// peers and swap it in; on failure (a shape conflict, or coverage
    /// lost) the last good table stays.
    fn rediscover_tick(&self) {
        let prev = self.table();
        if let Ok(next) = Self::build_table(&self.peer_addrs, self.timeout, Some(&prev)) {
            *self.table.write().unwrap() = Arc::new(next);
            self.rediscoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One `addr → shards a..b, vertices x..y` line per peer, for startup
    /// narration.
    pub fn peer_summary(&self) -> Vec<String> {
        self.table()
            .peers
            .iter()
            .map(|p| {
                format!(
                    "{} → shards {}..{}, vertices {}..{}",
                    p.peer.addr,
                    p.peer.shards.start,
                    p.peer.shards.end,
                    p.vertices.start,
                    p.vertices.end
                )
            })
            .collect()
    }

    /// Product vertex count of the routed run.
    pub fn num_vertices(&self) -> u64 {
        self.table().num_vertices
    }

    /// One request to the replicas `candidates` through [`failover`],
    /// rotating round-robin: a replica that is down, unreachable or
    /// answers 5xx is failed over, and `judge` classifies every other
    /// answer as the answer, a torn reply to fail over on, or a final
    /// error that every replica of a consistent cluster would repeat.
    fn try_replicas<T, E>(
        &self,
        table: &RouterTable,
        candidates: &[usize],
        method: Method<'_>,
        path: &str,
        judge: impl Fn(&Peer, u16, String) -> Attempt<T, E>,
    ) -> Attempt<T, E> {
        let label = match method {
            Method::Get => "GET",
            Method::Post(_) => path,
        };
        failover(
            candidates.iter().map(|&i| &table.peers[i].peer),
            self.rr.fetch_add(1, Ordering::Relaxed),
            &now_ms,
            |peer| {
                let outcome = match peer.exchange(method, path).map(text) {
                    Ok((status, body)) if status >= 500 => Attempt::Transport(format!(
                        "peer {}: {label} answered {status}: {}",
                        peer.addr,
                        body.trim()
                    )),
                    Ok((status, body)) => judge(peer, status, body),
                    Err(e) => Attempt::Transport(e),
                };
                if let Attempt::Transport(_) = outcome {
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                }
                outcome
            },
        )
    }

    /// Route until `shutdown` becomes `true`, accepting on the bound
    /// `front` listener, then return the run's totals. Mirrors
    /// [`Server::run`]'s connection model and shutdown contract exactly;
    /// the router itself records no mismatches (those live on the
    /// nodes — see `/stats`). When re-discovery is enabled
    /// ([`Router::set_rediscover`]) a timer thread re-runs discovery at
    /// that interval until shutdown.
    ///
    /// # Errors
    ///
    /// Like [`Server::run`], the loop itself does not fail; the
    /// `io::Result` is kept for interface stability.
    pub fn run(
        &self,
        front: &Server,
        opts: &ServerOptions,
        shutdown: &AtomicBool,
    ) -> io::Result<RouterReport> {
        let state = RouterState {
            router: self,
            started: Instant::now(),
            http: LoopCounters::new(),
            queries: AtomicU64::new(0),
            forward_errors: AtomicU64::new(0),
        };
        std::thread::scope(|s| {
            let timer = self.rediscover.map(|every| {
                s.spawn(move || {
                    let mut last = Instant::now();
                    while !shutdown.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(25));
                        if last.elapsed() >= every {
                            self.rediscover_tick();
                            last = Instant::now();
                        }
                    }
                })
            });
            serve_connections(
                front.listener(),
                &opts.loop_config(),
                "kron route",
                shutdown,
                &state.http,
                &|req, on| route(&state, req, on),
            );
            if let Some(t) = timer {
                t.join().unwrap();
            }
        });
        Ok(RouterReport {
            requests: state.http.requests.load(Ordering::Relaxed),
            bad_requests: state.http.bad_requests.load(Ordering::Relaxed),
            queries: state.queries.load(Ordering::Relaxed),
            forward_errors: state.forward_errors.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
        })
    }
}

/// A peer's slot in a [`fan_out`] round: `None` when the peer was
/// skipped, otherwise the forward's outcome.
type FanOutSlot<'t> = (&'t RouterPeer, Option<Forwarded>);

/// `GET path` from every peer of `table` that `ask` selects,
/// concurrently — a hung peer costs the caller one timeout, not one per
/// peer. Results come back in peer order, `None` for peers not asked.
fn fan_out<'t>(
    table: &'t RouterTable,
    path: &str,
    ask: &(impl Fn(&RouterPeer) -> bool + Sync),
) -> Vec<FanOutSlot<'t>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = table
            .peers
            .iter()
            .map(|p| ask(p).then(|| s.spawn(move || p.peer.exchange(Method::Get, path).map(text))))
            .collect();
        table
            .peers
            .iter()
            .zip(handles)
            .map(|(p, h)| (&**p, h.map(|h| h.join().expect("forward thread panicked"))))
            .collect()
    })
}

/// Dispatch one request: parse/validate locally (same errors as a node),
/// forward the rest. On the event thread only the table's refusals are
/// answered: everything the router serves waits on a peer, so it is
/// declined to the pool.
fn route(state: &RouterState<'_>, req: &http::Request, on: Thread) -> Option<Response> {
    match endpoints::resolve(Tier::Router, &req.method, &req.path) {
        Err(refusal) => Some(refusal),
        Ok(endpoint) => (on == Thread::Pool).then(|| forward(state, req, endpoint)),
    }
}

/// Serve one resolved endpoint through the cluster (pool threads only:
/// every arm may block on a peer).
fn forward(state: &RouterState<'_>, req: &http::Request, endpoint: Endpoint) -> Response {
    let r = state.router;
    let gateway_err = |detail: String| -> Response {
        state.forward_errors.fetch_add(1, Ordering::Relaxed);
        error(502, detail)
    };
    match endpoint {
        Endpoint::Healthz => {
            let table = r.table();
            // Probe every peer concurrently: one hung node must cost the
            // probe one timeout, not one per peer — monitoring timeouts
            // are usually shorter than peers × 5 s. Health state is not
            // consulted or updated here: a monitoring probe reports the
            // cluster as it is right now.
            for (p, res) in fan_out(&table, "/healthz", &|_| true) {
                match res.expect("healthz skips no peer") {
                    Ok((200, _)) => {}
                    Ok((status, _)) => {
                        return error(
                            503,
                            format_args!("peer {} unhealthy (status {status})", p.peer.addr),
                        )
                    }
                    Err(e) => return error(503, e),
                }
            }
            (200, TEXT, b"ok\n".to_vec())
        }
        // Parse locally first (identical 400s to a node), then forward
        // the canonical form to a replica of the routing vertex's shard
        // and relay the winning node's answer verbatim, whatever its
        // (non-5xx) status — the router adds nothing on this path.
        Endpoint::Point(kind) => match Point::parse(kind, req) {
            Err(e) => error(400, e),
            Ok(point) => {
                state.queries.fetch_add(1, Ordering::Relaxed);
                let table = r.table();
                let candidates = table.candidates_for(point.routing_vertex());
                let relay = |_: &Peer, status, body| Attempt::Done((status, body));
                let outcome: Attempt<_, Infallible> = r.try_replicas(
                    &table,
                    &candidates,
                    Method::Get,
                    &point.forward_path(),
                    relay,
                );
                match outcome {
                    Attempt::Done((200, body)) => (200, point.content_type(), body.into_bytes()),
                    Attempt::Done((status, body)) => (status, TEXT, body.into_bytes()),
                    Attempt::Transport(failures) => {
                        gateway_err(format!("all replicas failed: {failures}"))
                    }
                    Attempt::Final(never) => match never {},
                }
            }
        },
        Endpoint::Batch => match endpoints::parse_batch(req) {
            Err(refusal) => refusal,
            Ok(queries) => {
                state
                    .queries
                    .fetch_add(queries.len() as u64, Ordering::Relaxed);
                forward_batch(r, &queries).unwrap_or_else(gateway_err)
            }
        },
        Endpoint::Stats => {
            // Merge rule (normative in ARCHITECTURE.md): per-peer docs
            // verbatim under `peers` (ascending claim) with the peer's
            // replica-health fields beside them, the named counters
            // (top-level, or under the peer's `connections`) summed
            // under `totals`, the router's own counters at the
            // top level. An unreachable peer reports `"up":false` and
            // `"stats":null` and is left out of the totals — the per-peer
            // nulls make the partiality visible, and a cluster running
            // degraded must still be observable (a down node taking
            // `/stats` down with it would blind monitoring exactly when
            // it matters).
            let table = r.table();
            let mut peer_docs = Vec::with_capacity(table.peers.len());
            let mut totals = [0u64; 9];
            const KEYS: [&str; 9] = [
                "queries",
                "errors",
                "bad_requests",
                "sampled_checks",
                "mismatch_count",
                "rows_served",
                "wedges_served",
                "inline",
                "pooled",
            ];
            // don't pay a timeout per /stats call for a known-down peer;
            // it reports up:false, stats:null below
            let responses = fan_out(&table, "/stats", &|p| p.peer.health.is_up());
            for (p, res) in responses {
                let stats = match res {
                    Some(Ok((200, body))) => Json::parse(&body).ok(),
                    _ => None,
                };
                if let Some(doc) = &stats {
                    let conns = doc.get("connections");
                    for (i, key) in KEYS.iter().enumerate() {
                        let field = doc.get(key).or_else(|| conns?.get(key));
                        totals[i] += field.and_then(Json::as_u64).unwrap_or(0);
                    }
                }
                let mut fields = p.peer.stats_fields([
                    ("vertex_lo", Json::num(p.vertices.start)),
                    ("vertex_hi", Json::num(p.vertices.end)),
                ]);
                fields.push(("stats", stats.unwrap_or(Json::Null)));
                peer_docs.push(Json::obj(fields));
            }
            let doc = Json::obj(vec![
                ("role", Json::str("router")),
                (
                    "uptime_secs",
                    Json::num(state.started.elapsed().as_secs_f64()),
                ),
                (
                    "requests",
                    Json::num(state.http.requests.load(Ordering::Relaxed)),
                ),
                (
                    "bad_requests",
                    Json::num(state.http.bad_requests.load(Ordering::Relaxed)),
                ),
                ("queries", Json::num(state.queries.load(Ordering::Relaxed))),
                (
                    "forward_errors",
                    Json::num(state.forward_errors.load(Ordering::Relaxed)),
                ),
                ("failovers", Json::num(r.failovers.load(Ordering::Relaxed))),
                (
                    "rediscoveries",
                    Json::num(r.rediscoveries.load(Ordering::Relaxed)),
                ),
                ("connections", state.http.conns.to_json()),
                (
                    "totals",
                    Json::Obj(
                        KEYS.iter()
                            .zip(totals)
                            .map(|(k, v)| (k.to_string(), Json::num(v)))
                            .collect(),
                    ),
                ),
                ("peers", Json::Arr(peer_docs)),
            ]);
            json(200, doc)
        }
        Endpoint::Shards => {
            // The cluster presents as one complete node — a router (or a
            // router of routers) in front of it needs nothing else.
            let t = r.table();
            endpoints::shards(
                t.num_shards,
                0..t.num_shards,
                0..t.num_vertices,
                t.num_vertices,
            )
        }
        Endpoint::Row | Endpoint::Rows => error(
            404,
            "the router serves no rows (fetch from the owning node)",
        ),
        Endpoint::Wedges => error(404, "the router intersects no rows (ask the owning node)"),
        Endpoint::Jobs => unreachable!("the table marks /jobs absent on the router"),
    }
}

/// `POST /batch` through the cluster: group the queries by replica set
/// (input order is kept within each group), send every group's sub-batch
/// through failover concurrently (wall clock tracks the slowest set, not
/// the sum), then reassemble the answer lines by original index —
/// byte-identical to a single node walking the batch in order. With
/// disjoint claims that is one sub-batch per peer. `Err` is the detail of
/// the router's `502`.
fn forward_batch(r: &Router, queries: &[Query]) -> Result<Response, String> {
    let table = r.table();
    let mut groups: BTreeMap<Vec<usize>, (Vec<usize>, String)> = BTreeMap::new();
    for (i, q) in queries.iter().enumerate() {
        let (indices, body) = groups
            .entry(table.candidates_for(q.routing_vertex()))
            .or_default();
        indices.push(i);
        body.push_str(&format!("{q}\n"));
    }
    let outcomes: Vec<Attempt<String, String>> = std::thread::scope(|s| {
        let table = &table;
        let handles: Vec<_> = groups
            .iter()
            .map(|(replicas, (indices, body))| {
                // one answer line per query, or the reply is torn
                let judge =
                    move |peer: &Peer, status, resp: String| match (status, resp.lines().count()) {
                        (200, n) if n == indices.len() => Attempt::Done(resp),
                        (200, n) => Attempt::Transport(format!(
                            "peer {}: /batch returned {n} lines for {} queries",
                            peer.addr,
                            indices.len()
                        )),
                        _ => Attempt::Final(format!(
                            "peer {}: /batch answered {status}: {}",
                            peer.addr,
                            resp.trim()
                        )),
                    };
                let post = Method::Post(body.as_bytes());
                s.spawn(move || r.try_replicas(table, replicas, post, "/batch", judge))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("forward thread panicked"))
            .collect()
    });
    let mut lines: Vec<&str> = vec![""; queries.len()];
    for ((indices, _), outcome) in groups.values().zip(&outcomes) {
        match outcome {
            Attempt::Done(resp) => {
                for (&i, line) in indices.iter().zip(resp.lines()) {
                    lines[i] = line;
                }
            }
            Attempt::Transport(_) => {
                return Err(format!(
                    "all replicas failed for batch query {:?} (peers: {})",
                    queries[indices[0]].to_string(),
                    table.addr_list()
                ))
            }
            Attempt::Final(detail) => return Err(detail.clone()),
        }
    }
    if lines.iter().map(|l| l.len() + 1).sum::<usize>() > MAX_BATCH_RESPONSE {
        return Ok(endpoints::batch_too_large());
    }
    let out: String = lines.iter().flat_map(|l| [*l, "\n"]).collect();
    Ok((200, TEXT, out.into_bytes()))
}

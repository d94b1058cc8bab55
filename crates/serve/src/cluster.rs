//! Multi-node shard-subset serving: peer specs, replica-aware shard →
//! peer resolution, and the remote-row and remote-intersection client
//! with failover.
//!
//! One machine stops being enough exactly when the paper's products get
//! interesting: a trillion-entry CSR run directory does not fit one
//! node's disks or page cache. The cluster answer keeps the wire protocol
//! and the run-directory format unchanged and splits only *residency*:
//! each node opens a contiguous **shard subset**
//! ([`kron_stream::ShardSet::open_with`]) of the same run directory and
//! serves every query it receives — local rows read in place off its own
//! mappings, the rows a peer holds asked of it over the internal `POST
//! /rows` endpoint. `RemoteShards::rows` sends the ascending vertices
//! whose rows it wants, all held by one replica set, and gets their rows
//! back length-prefixed (`application/kron-rows`), each in the one row
//! encoding, varint delta. A direct query's far row is a one-vertex
//! ask; a traversal asks for a whole BFS level's far rows at once, so a
//! level costs one round trip per replica set rather than one per row.
//! The asker refuses a `200` of any other `Content-Type` and fails over,
//! so a node speaking another encoding is never misread; see
//! `ARCHITECTURE.md` § "Cluster serving" for the normative wire format.
//!
//! Triangle queries do not fetch rows: a row's neighbours a peer owns
//! are intersected **on** that peer. `RemoteShards::wedges` ships
//! `row(v)` and the ascending far neighbours in one internal `POST
//! /wedges` per replica set (`encode_wedges`; `WedgeAsk` is the
//! answering side's decoder), and gets one `(count, checks)` pair per
//! neighbour back — the terms `kron_triangles::slice::intersect_excluding`
//! yields on a single node, so the sums are the single node's. A peer may
//! answer only a prefix of the neighbours — or, for `/rows`, of the
//! vertices — because its event thread stops at a bounded merge rather
//! than hand a short-row exchange to its workers; the querying node then
//! asks again for the rest. Both replies share one framing check
//! (`decode_prefix`).
//!
//! The **ownership map** has two layers, both static:
//!
//! * *shard → vertex range* comes from the shard plan, a function of the
//!   run's factor copies and shard count that every node computes at
//!   open, so routing any product vertex to its owning shard needs no
//!   network round trip and no other shard's manifest;
//! * *shard → replica list* comes from the command line: each node is
//!   started with `--shards a..b` (its own claim) and `--peers
//!   a..b=ADDR,…` ([`PeerSpec`]) for every other node. Claims **may
//!   overlap** — a shard claimed by several peers has several replicas,
//!   and fetches rotate over them — but together with the own claim they
//!   must **cover** `0..shards`, or the engine refuses to open (the
//!   rejection names the first uncovered shard).
//!
//! Peers are contacted lazily (first non-resident row fetch), so nodes
//! can start in any order. A failed fetch (connect error, timeout, 5xx,
//! or a malformed row body) transparently **fails over** to the next
//! replica, and three consecutive failures **eject** a peer until a
//! `GET /healthz` probe re-admits it. That policy — pooling, the stale-
//! connection retry, rotation, failover, ejection, probing — is not
//! implemented here: `replica.rs` is its single implementation, shared
//! with the router. This module only says what a `/rows` or `/wedges`
//! answer means (which statuses fail over, how a body decodes, which
//! framing is torn). No far row enters the engine's hot-row
//! [`crate::RowCache`]: a direct query reads its row once, and so does
//! a BFS level. (Nodes still answer `GET /row`, one resident row per
//! request, for tools that probe a single row; no node asks it.)
//!
//! ## Example
//!
//! ```
//! use kron_serve::PeerSpec;
//!
//! // Two replicas for shards 2..4: the same range, two addresses.
//! let peers = PeerSpec::parse_list("2..4=10.0.0.1:8080,2..4=10.0.0.2:8080").unwrap();
//! assert_eq!(peers.len(), 2);
//! assert_eq!(peers[0].shards, peers[1].shards);
//! assert_eq!(peers[1].to_string(), "2..4=10.0.0.2:8080");
//! ```

use crate::engine::ServeError;
use crate::replica::{failover, first_uncovered, now_ms, Attempt, Method, Peer, Reply};
use kron_stream::json::Json;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Default node-to-node fetch timeout (connect and read): long enough
/// for a loaded peer, short enough that a dead one surfaces as a bounded
/// [`ServeError::Remote`] instead of a stalled query.
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// One peer of a cluster node: the contiguous shard range it serves and
/// the address its server listens on.
///
/// The CLI spelling is `a..b=HOST:PORT` (`a..b` end-exclusive, matching
/// the manifests' ranges); `--peers` takes a comma-separated list.
/// Several entries may claim the same (or overlapping) ranges — they are
/// replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerSpec {
    /// The run-wide shard indices `[start, end)` this peer serves.
    pub shards: Range<usize>,
    /// The peer's `host:port`.
    pub addr: String,
}

/// Parse a shard range spelled `a..b` (end-exclusive, `a < b`).
///
/// # Errors
///
/// Returns a message naming the offending token when the spelling is not
/// `a..b` with integers `a < b`.
pub fn parse_shard_range(s: &str) -> Result<Range<usize>, String> {
    let (lo, hi) = s
        .split_once("..")
        .ok_or_else(|| format!("shard range {s:?} must be spelled a..b (end-exclusive)"))?;
    let parse = |tok: &str| -> Result<usize, String> {
        tok.parse()
            .map_err(|_| format!("shard range {s:?}: {tok:?} is not a shard index"))
    };
    let (lo, hi) = (parse(lo)?, parse(hi)?);
    if lo >= hi {
        return Err(format!("shard range {s:?} is empty (need a < b)"));
    }
    Ok(lo..hi)
}

impl PeerSpec {
    /// Parse one `a..b=HOST:PORT` spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending token when the range or
    /// address part is missing or malformed.
    pub fn parse(s: &str) -> Result<PeerSpec, String> {
        let (range, addr) = s
            .split_once('=')
            .ok_or_else(|| format!("peer {s:?} must be spelled a..b=HOST:PORT"))?;
        let shards = parse_shard_range(range)?;
        if addr.is_empty() {
            return Err(format!("peer {s:?} has an empty address"));
        }
        Ok(PeerSpec {
            shards,
            addr: addr.to_string(),
        })
    }

    /// Parse a comma-separated `--peers` list.
    ///
    /// # Errors
    ///
    /// Returns the first per-entry [`PeerSpec::parse`] failure, or a
    /// message for an empty list.
    pub fn parse_list(s: &str) -> Result<Vec<PeerSpec>, String> {
        let specs: Vec<PeerSpec> = s
            .split(',')
            .filter(|t| !t.is_empty())
            .map(PeerSpec::parse)
            .collect::<Result<_, _>>()?;
        if specs.is_empty() {
            return Err("peer list is empty".into());
        }
        Ok(specs)
    }
}

impl std::fmt::Display for PeerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}..{}={}",
            self.shards.start, self.shards.end, self.addr
        )
    }
}

/// The remote side of a cluster node's engine: shard → replica-list
/// resolution over the configured peers.
///
/// Fetches are blocking with a bounded timeout and rotate round-robin
/// over a shard's replicas with the failover, ejection, and probing of
/// [`crate::replica`]; only when every replica has failed does the fetch
/// surface as [`ServeError::Remote`] (naming each replica tried).
#[derive(Debug)]
pub(crate) struct RemoteShards {
    /// One per `--peers` entry, in `--peers` order.
    peers: Vec<Peer>,
    /// Run-wide shard index → indices into `peers` of its replicas
    /// (empty = resident locally only).
    by_shard: Vec<Vec<usize>>,
    /// Round-robin cursor over replicas, shared across shards.
    rr: AtomicUsize,
    /// Product vertex count `n_C`: every column of a fetched row must be
    /// below it.
    num_vertices: u64,
}

impl RemoteShards {
    /// Build the shard → replica-list table, enforcing that `own` plus
    /// the peer ranges **cover** `0..num_shards`. Overlapping claims are
    /// replicas; a gap rejects the open, naming the first uncovered
    /// shard.
    pub(crate) fn new(
        specs: &[PeerSpec],
        own: Range<usize>,
        num_shards: usize,
        num_vertices: u64,
        timeout: Duration,
    ) -> Result<RemoteShards, ServeError> {
        if let Some(spec) = specs.iter().find(|s| s.shards.end > num_shards) {
            return Err(ServeError::Open(format!(
                "peer {spec}: run has only {num_shards} shards"
            )));
        }
        let claims = specs.iter().map(|s| s.shards.clone());
        if let Some(gap) = first_uncovered(num_shards, claims.chain([own.clone()])) {
            return Err(ServeError::Open(format!(
                "ownership map incomplete: shard {gap} is neither resident \
                 (own range {}..{}) nor assigned to any --peers entry",
                own.start, own.end
            )));
        }
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        for (i, spec) in specs.iter().enumerate() {
            for s in spec.shards.clone() {
                by_shard[s].push(i);
            }
        }
        Ok(RemoteShards {
            peers: specs
                .iter()
                .map(|s| Peer::new(s.to_string(), s.addr.clone(), s.shards.clone(), timeout))
                .collect(),
            by_shard,
            rr: AtomicUsize::new(0),
            num_vertices,
        })
    }

    /// The configured peer specs, in `--peers` order.
    pub(crate) fn specs(&self) -> Vec<PeerSpec> {
        self.peers
            .iter()
            .map(|p| PeerSpec {
                shards: p.shards.clone(),
                addr: p.addr.clone(),
            })
            .collect()
    }

    /// The `/stats` `peers` array: one object per `--peers` entry with
    /// its claim and health counters, in `--peers` order.
    pub(crate) fn peer_stats(&self) -> Json {
        Json::Arr(
            self.peers
                .iter()
                .map(|p| Json::obj(p.stats_fields([])))
                .collect(),
        )
    }

    /// Indices into the peer table of `shard`'s replicas (empty for a
    /// shard resident here only). Two shards with equal lists share one
    /// `/wedges` exchange.
    pub(crate) fn replicas(&self, shard: usize) -> &[usize] {
        &self.by_shard[shard]
    }

    /// One request to one of `replicas` through [`failover`], `judge`
    /// classifying each framed answer; `what` names the request in the
    /// all-replicas-failed error.
    fn ask<T>(
        &self,
        replicas: &[usize],
        method: Method<'_>,
        path: &str,
        what: impl std::fmt::Display,
        judge: impl Fn(&Peer, Reply) -> Attempt<T, ServeError>,
    ) -> Result<T, ServeError> {
        assert!(
            !replicas.is_empty(),
            "peers are only asked about shards the table maps to them"
        );
        let outcome = failover(
            replicas.iter().map(|&i| &self.peers[i]),
            self.rr.fetch_add(1, Ordering::Relaxed),
            &now_ms,
            |peer| match peer.exchange(method, path) {
                Err(detail) => Attempt::Transport(detail),
                Ok(reply) => judge(peer, reply),
            },
        );
        match outcome {
            Attempt::Done(answer) => Ok(answer),
            Attempt::Transport(failures) => Err(ServeError::Remote(format!(
                "all replicas failed for {what}: {failures}"
            ))),
            Attempt::Final(e) => Err(e),
        }
    }

    /// Ask one of `replicas` in one `POST /rows` for the rows of `asked`,
    /// ascending vertices whose shards those replicas hold. The peer
    /// answers a prefix of `asked`, at least its first vertex; returns the
    /// rows of that prefix, in order, still varint delta encoded.
    pub(crate) fn rows(&self, replicas: &[usize], asked: &[u64]) -> Result<PeerRows, ServeError> {
        let mut body = Vec::new();
        kron_stream::encode_row_vd(asked, &mut body);
        self.ask(
            replicas,
            Method::Post(&body),
            "/rows",
            format_args!("/rows of {} vertices from {}", asked.len(), asked[0]),
            |peer, reply| {
                decode_rows(reply, asked.len(), self.num_vertices, &|detail| {
                    format!("peer {} (/rows from {}): {detail}", peer.label, asked[0])
                })
            },
        )
    }

    /// Ship `row_v` to one of `replicas` in one `POST /wedges` about
    /// `asked`, the ascending neighbours of `v` whose rows those replicas
    /// hold. The peer answers a prefix of `asked`, at least its first
    /// neighbour; returns its length `j` and `Σ_u (|N(u) ∩ N(v) \ {u, v}|,
    /// comparisons)` over `asked[..j]`.
    pub(crate) fn wedges(
        &self,
        replicas: &[usize],
        v: u64,
        row_v: &[u64],
        asked: &[u64],
    ) -> Result<(usize, u64, u64), ServeError> {
        let body = encode_wedges(v, row_v, asked);
        self.ask(
            replicas,
            Method::Post(&body),
            "/wedges",
            format_args!("/wedges v {v} ({} neighbours)", asked.len()),
            |peer, reply| {
                decode_wedges(reply, asked.len(), row_v.len() as u64, &|detail| {
                    format!("peer {} (/wedges v {v}): {detail}", peer.label)
                })
            },
        )
    }
}

/// The body of a `POST /wedges`: `v` and the byte length of `row(v)`'s
/// varint delta encoding as LEB128 varints, those bytes, then the asked
/// neighbours in the same varint delta encoding up to the end of the body
/// (ARCHITECTURE.md § "`POST /wedges`").
fn encode_wedges(v: u64, row_v: &[u64], asked: &[u64]) -> Vec<u8> {
    let mut row = Vec::new();
    kron_stream::encode_row_vd(row_v, &mut row);
    let mut body = Vec::with_capacity(row.len() + asked.len() + 20);
    kron_stream::csr::varint_push(v, &mut body);
    kron_stream::csr::varint_push(row.len() as u64, &mut body);
    body.extend_from_slice(&row);
    kron_stream::encode_row_vd(asked, &mut body);
    body
}

/// A decoded, validated `POST /wedges` body.
pub(crate) struct WedgeAsk {
    /// The querying node's vertex.
    pub(crate) v: u64,
    /// Its row, strictly ascending, every column below `n_C`.
    pub(crate) row_v: Vec<u64>,
    /// The neighbours of `v` to intersect with, strictly ascending, each
    /// a column of `row_v`.
    pub(crate) asked: Vec<u64>,
}

impl WedgeAsk {
    /// Decode a `/wedges` body for a product of `num_vertices` vertices.
    /// The error is the text of the `400` refusing it.
    pub(crate) fn parse(body: &[u8], num_vertices: u64) -> Result<WedgeAsk, String> {
        use kron_stream::csr::varint_read;
        let mut pos = 0;
        let (Some(v), Some(len)) = (varint_read(body, &mut pos), varint_read(body, &mut pos))
        else {
            return Err("/wedges body does not start with two varints (v, row bytes)".into());
        };
        if v >= num_vertices {
            return Err(format!(
                "v {v} is not a vertex (the product has {num_vertices})"
            ));
        }
        let row_end = usize::try_from(len)
            .ok()
            .and_then(|len| pos.checked_add(len))
            .filter(|&end| end <= body.len())
            .ok_or_else(|| format!("row of {len} bytes overruns the {}-byte body", body.len()))?;
        let row_v = decode_peer_row(&body[pos..row_end], num_vertices)?;
        let mut asked = Vec::new();
        if !kron_stream::decode_row_vd(&body[row_end..], &mut asked) {
            return Err("asked neighbours are not a strictly ascending varint delta row".into());
        }
        if let Some(u) = asked.iter().find(|u| row_v.binary_search(u).is_err()) {
            return Err(format!("asked vertex {u} is not in row {v}"));
        }
        Ok(WedgeAsk { v, row_v, asked })
    }
}

/// A checked `/rows` answer, kept as it came off the wire — a level's far
/// rows held decoded would take about five times the memory: the body,
/// and the byte span in it of each answered vertex's row, in asked order.
/// Every span decodes to a strictly ascending row below `n_C`.
pub(crate) struct PeerRows {
    body: Vec<u8>,
    pub(crate) spans: Vec<Range<usize>>,
}

impl PeerRows {
    /// The row of the `i`-th answered vertex, decoded.
    pub(crate) fn decode(&self, i: usize) -> Vec<u64> {
        let mut row = Vec::new();
        // checked when the answer was judged
        let decoded = kron_stream::decode_row_vd(&self.body[self.spans[i].clone()], &mut row);
        debug_assert!(decoded);
        row
    }
}

/// Decode a `POST /rows` body — the ascending vertices a peer asks the
/// rows of, varint delta encoded — for a product of `num_vertices`
/// vertices. The error is the text of the `400` refusing it.
pub(crate) fn parse_rows_ask(body: &[u8], num_vertices: u64) -> Result<Vec<u64>, String> {
    decode_peer_row(body, num_vertices).map_err(|e| format!("asked vertices: {e}"))
}

/// The status and type half of judging a peer's answer: the body of a
/// `200` that declares `ctype`, or how the failover loop treats anything
/// else. A `200` of another type is torn, refused before its body is read
/// — raw bytes can pass for varints.
fn typed_body<T>(
    (status, declared, body): Reply,
    ctype: &str,
    fail: &dyn Fn(String) -> String,
) -> Result<Vec<u8>, Attempt<T, ServeError>> {
    if status == 200 {
        if declared != ctype {
            return Err(Attempt::Transport(fail(format!(
                "200 declares Content-Type {declared:?}, not {ctype}"
            ))));
        }
        return Ok(body);
    }
    let detail = fail(format!(
        "status {status}: {}",
        String::from_utf8_lossy(&body).trim()
    ));
    Err(if status >= 500 {
        // the replica answered but could not serve — fail over
        Attempt::Transport(detail)
    } else {
        // the peer's text/plain error body explains (not owned here /
        // out of range / malformed) — config skew between nodes; a
        // deterministic answer every replica would repeat, so no
        // failover
        Attempt::Final(ServeError::Remote(detail))
    })
}

/// The framing every prefix answer shares (`/wedges`, `/rows`): whole
/// answers for the first `j` asked items, `1 ≤ j ≤ asked` (none only when
/// nothing was asked), and no byte after them. `answer` reads one answer
/// from `body` at `pos`, or says why it cannot. A body that breaks this
/// is torn or corrupt — another replica may get it right — so the error
/// is a transport failure's detail.
fn decode_prefix<T>(
    body: &[u8],
    asked: usize,
    mut answer: impl FnMut(&mut usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let (mut pos, mut answers) = (0, Vec::new());
    while pos < body.len() && answers.len() < asked {
        let i = answers.len();
        answers.push(answer(&mut pos).map_err(|e| format!("answer {i}: {e}"))?);
    }
    if pos != body.len() {
        return Err(format!("trailing bytes after {} answers", answers.len()));
    }
    if answers.is_empty() && asked > 0 {
        return Err(format!("no answer for {asked} asked"));
    }
    Ok(answers)
}

/// Judge one `/wedges` answer for `asked` neighbours of a `row_len`-entry
/// row: a `200` of [`crate::http::WEDGES_CONTENT_TYPE`] whose body has
/// [`decode_prefix`] framing of `(count, checks)` varint pairs, every
/// count at most `row_len` (an intersection is no larger than the row) and
/// every check count at least its count (each common column costs a
/// comparison). Anything else is torn — never a count to trust. Returns
/// how many neighbours were answered and the sums over their pairs.
fn decode_wedges(
    reply: Reply,
    asked: usize,
    row_len: u64,
    fail: &dyn Fn(String) -> String,
) -> Attempt<(usize, u64, u64), ServeError> {
    let body = match typed_body(reply, crate::http::WEDGES_CONTENT_TYPE, fail) {
        Ok(body) => body,
        Err(attempt) => return attempt,
    };
    let read = |pos: &mut usize| kron_stream::csr::varint_read(&body, pos);
    let pairs = decode_prefix(&body, asked, |pos| {
        let (Some(c), Some(k)) = (read(pos), read(pos)) else {
            return Err("not two whole varints".into());
        };
        if c > row_len || k < c {
            return Err(format!(
                "({c}, {k}): a count is at most the row's {row_len} entries \
                 and at most its checks"
            ));
        }
        Ok((c, k))
    });
    match pairs {
        Ok(pairs) => {
            let sum = |f: fn(&(u64, u64)) -> u64| pairs.iter().map(f).sum();
            Attempt::Done((pairs.len(), sum(|p| p.0), sum(|p| p.1)))
        }
        Err(e) => Attempt::Transport(fail(format!("body of {} bytes: {e}", body.len()))),
    }
}

/// Judge one `/rows` answer for `asked` vertices: a `200` of
/// [`crate::http::ROWS_CONTENT_TYPE`] whose body has [`decode_prefix`]
/// framing of rows, each a varint byte length and that many bytes of a
/// row passing [`decode_peer_row`]. Anything else is torn.
fn decode_rows(
    reply: Reply,
    asked: usize,
    num_vertices: u64,
    fail: &dyn Fn(String) -> String,
) -> Attempt<PeerRows, ServeError> {
    let body = match typed_body(reply, crate::http::ROWS_CONTENT_TYPE, fail) {
        Ok(body) => body,
        Err(attempt) => return attempt,
    };
    let mut row = Vec::new();
    let spans = decode_prefix(&body, asked, |pos| {
        let len = kron_stream::csr::varint_read(&body, pos).ok_or("no whole length varint")?;
        let span = usize::try_from(len)
            .ok()
            .and_then(|len| pos.checked_add(len))
            .filter(|&end| end <= body.len())
            .map(|end| *pos..end)
            .ok_or_else(|| format!("a row of {len} bytes overruns the body"))?;
        check_peer_row(&body[span.clone()], num_vertices, &mut row)?;
        *pos = span.end;
        Ok(span)
    });
    match spans {
        Ok(spans) => Attempt::Done(PeerRows { body, spans }),
        Err(e) => Attempt::Transport(fail(format!("body of {} bytes: {e}", body.len()))),
    }
}

/// Decode a row another node sent — a row of a `/rows` answer or the
/// row of a `/wedges` ask — and check it: it came from outside this
/// process, and the binary searches behind `has_edge` and the triangle
/// kernels need strictly ascending columns below `n_C`. The varint delta
/// decoder already refuses a zero gap, so only the last column needs a
/// bound.
fn decode_peer_row(bytes: &[u8], num_vertices: u64) -> Result<Vec<u64>, String> {
    let mut row = Vec::new();
    check_peer_row(bytes, num_vertices, &mut row)?;
    Ok(row)
}

/// [`decode_peer_row`] into `row`, cleared first.
fn check_peer_row(bytes: &[u8], num_vertices: u64, row: &mut Vec<u64>) -> Result<(), String> {
    row.clear();
    if !kron_stream::decode_row_vd(bytes, row) {
        return Err("row is not a strictly ascending varint delta row".into());
    }
    match row.last() {
        Some(&q) if q >= num_vertices => Err(format!(
            "row names vertex {q}, but the product has only {num_vertices}"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn peer_specs_parse_and_roundtrip() {
        let p = PeerSpec::parse("3..7=127.0.0.1:9000").unwrap();
        assert_eq!(p.shards, 3..7);
        assert_eq!(p.addr, "127.0.0.1:9000");
        assert_eq!(PeerSpec::parse(&p.to_string()).unwrap(), p);

        let list = PeerSpec::parse_list("0..1=a:1,1..2=b:2").unwrap();
        assert_eq!(list.len(), 2);

        for bad in [
            "0..1",     // no address
            "=x:1",     // no range
            "1..1=x:1", // empty range
            "2..1=x:1", // backwards
            "a..b=x:1", // not integers
            "0..1=",    // empty address
            "",         // empty list
        ] {
            assert!(
                PeerSpec::parse_list(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
        assert!(parse_shard_range("0-4").is_err(), "only a..b is accepted");
    }

    #[test]
    fn replica_claims_may_overlap_but_must_cover() {
        let t = DEFAULT_PEER_TIMEOUT;
        let spec = |s: &str| PeerSpec::parse(s).unwrap();
        // complete, disjoint: own 0..2, peers cover 2..6
        assert!(RemoteShards::new(&[spec("2..4=a:1"), spec("4..6=b:1")], 0..2, 6, 100, t).is_ok());
        // overlap with the own range is a replica, not an error
        assert!(RemoteShards::new(&[spec("1..6=a:1")], 0..2, 6, 100, t).is_ok());
        // overlap between peers: shards 4..5 have two replicas
        let r = RemoteShards::new(&[spec("2..5=a:1"), spec("4..6=b:1")], 0..2, 6, 100, t).unwrap();
        assert_eq!(r.by_shard[4], vec![0, 1]);
        assert_eq!(r.by_shard[3], vec![0]);
        // duplicate peer entries are two replicas of the same address
        assert!(RemoteShards::new(&[spec("2..6=a:1"), spec("2..6=a:1")], 0..2, 6, 100, t).is_ok());
        // gap: shard 5 uncovered — named in the rejection
        let err = RemoteShards::new(&[spec("2..5=a:1")], 0..2, 6, 100, t).unwrap_err();
        assert!(err.to_string().contains("incomplete"), "{err}");
        assert!(err.to_string().contains("shard 5"), "{err}");
        // beyond the run
        let err = RemoteShards::new(&[spec("2..9=a:1")], 0..2, 6, 100, t).unwrap_err();
        assert!(err.to_string().contains("only 6 shards"), "{err}");
    }

    /// Fuzz the replica-table validation: randomized claim sets with
    /// gaps, partial overlaps, duplicate peers, and the single-replica
    /// degenerate case must be accepted iff coverage is complete, and a
    /// rejection must name the **first** uncovered shard.
    #[test]
    fn replica_table_fuzz_accepts_iff_coverage_complete() {
        let t = DEFAULT_PEER_TIMEOUT;
        let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic LCG
        let mut rnd = |m: usize| -> usize {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m.max(1)
        };
        let addrs = ["a:1", "b:1", "a:1", "c:1"]; // duplicates on purpose
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        for _ in 0..400 {
            let num_shards = 1 + rnd(8);
            let own_lo = rnd(num_shards);
            let own_hi = own_lo + 1 + rnd(num_shards - own_lo);
            let n_peers = rnd(4);
            let specs: Vec<PeerSpec> = (0..n_peers)
                .map(|_| {
                    let lo = rnd(num_shards);
                    let hi = lo + 1 + rnd(num_shards - lo);
                    PeerSpec {
                        shards: lo..hi,
                        addr: addrs[rnd(addrs.len())].to_string(),
                    }
                })
                .collect();
            let mut covered = vec![false; num_shards];
            covered[own_lo..own_hi].fill(true);
            for spec in &specs {
                for s in spec.shards.clone() {
                    covered[s] = true;
                }
            }
            let first_gap = covered.iter().position(|&c| !c);
            let result = RemoteShards::new(&specs, own_lo..own_hi, num_shards, 100, t);
            match (first_gap, result) {
                (None, Ok(r)) => {
                    accepted += 1;
                    // every shard resolves: resident or ≥ 1 replica
                    for s in 0..num_shards {
                        assert!(
                            (own_lo..own_hi).contains(&s) || !r.by_shard[s].is_empty(),
                            "shard {s} unresolvable in an accepted table"
                        );
                    }
                }
                (Some(gap), Err(e)) => {
                    rejected += 1;
                    let msg = e.to_string();
                    assert!(msg.contains("incomplete"), "{msg}");
                    assert!(
                        msg.contains(&format!("shard {gap} ")),
                        "rejection must name the first uncovered shard {gap}: {msg}"
                    );
                }
                (None, Err(e)) => panic!("complete coverage rejected: {e}"),
                (Some(gap), Ok(_)) => panic!("gap at shard {gap} accepted"),
            }
        }
        // the generator must actually exercise both outcomes
        assert!(accepted > 20, "only {accepted} accepted cases");
        assert!(rejected > 20, "only {rejected} rejected cases");
    }

    /// Run one attempt against two replicas of shard 1 — `bad` answering
    /// `bad_reply`, then `good` answering `good_reply` — through the real
    /// failover loop and peer table, judged by `judge`; no socket is
    /// opened. The bad replica must be charged a failover and the good
    /// one must answer `want`.
    fn fails_over<T: PartialEq + std::fmt::Debug>(
        what: &str,
        bad_reply: &Reply,
        good_reply: &Reply,
        judge: impl Fn(Reply, &dyn Fn(String) -> String) -> Attempt<T, ServeError>,
        want: &T,
    ) {
        let specs = [
            PeerSpec::parse("1..2=bad.invalid:1").unwrap(),
            PeerSpec::parse("1..2=good.invalid:1").unwrap(),
        ];
        let remote = RemoteShards::new(&specs, 0..1, 2, 50, DEFAULT_PEER_TIMEOUT).unwrap();
        let outcome = failover(remote.peers.iter(), 0, &|| 0, |peer| {
            let reply = if peer.addr.starts_with("bad") {
                bad_reply
            } else {
                good_reply
            };
            judge(reply.clone(), &|detail| {
                format!("peer {}: {detail}", peer.label)
            })
        });
        match outcome {
            Attempt::Done(got) => assert_eq!(&got, want, "{what}"),
            Attempt::Transport(e) => panic!("{what}: no failover: {e}"),
            Attempt::Final(e) => panic!("{what}: classified as deterministic: {e}"),
        }
        let stats = remote.peer_stats().to_string();
        let [bad_peer, good_peer] = stats.split("},{").collect::<Vec<_>>()[..] else {
            panic!("two peers: {stats}");
        };
        assert!(
            bad_peer.contains("\"fetches\":0,\"failovers\":1"),
            "{what}: {stats}"
        );
        assert!(
            good_peer.contains("\"fetches\":1,\"failovers\":0"),
            "{what}: {stats}"
        );
    }

    /// A peer's row is input from outside the process: a `/rows` answer
    /// that frames but breaks the row contract (strictly ascending columns
    /// below `n_C`), or comes as raw words or under another Content-Type,
    /// is the torn-body class — the replica is charged, the next one
    /// answers, nothing is served from it. So is a `/wedges` reply under
    /// another Content-Type or that breaks its framing: no pair, a pair too many, half a pair, a count
    /// above the shipped row's length or above its own checks; and a
    /// `/rows` reply that does: no row, a row too many, a length past the
    /// body, a trailing byte.
    #[test]
    fn peer_rows_breaking_the_row_contract_fail_over_to_the_next_replica() {
        const N: u64 = 50;
        /// [`decode_rows`] for `asked` vertices, its rows decoded.
        fn judge_rows(
            reply: Reply,
            asked: usize,
            fail: &dyn Fn(String) -> String,
        ) -> Attempt<Vec<Vec<u64>>, ServeError> {
            match decode_rows(reply, asked, N, fail) {
                Attempt::Done(rows) => Attempt::Done(decoded(&rows)),
                Attempt::Transport(e) => Attempt::Transport(e),
                Attempt::Final(e) => Attempt::Final(e),
            }
        }
        let rows = |body: &[u8]| -> Reply {
            let ctype = crate::http::ROWS_CONTENT_TYPE.to_string();
            (200, ctype, body.to_vec())
        };
        // the answer to a one-vertex ask: the row's length, then its bytes
        let one_row = |row: &[u64]| {
            let (mut vd, mut body) = (Vec::new(), Vec::new());
            kron_stream::encode_row_vd(row, &mut vd);
            kron_stream::csr::varint_push(vd.len() as u64, &mut body);
            body.extend_from_slice(&vd);
            rows(&body)
        };
        let raw = |row: &[u64]| -> Reply {
            let body = row.iter().flat_map(|w| w.to_le_bytes()).collect();
            (200, "application/octet-stream".into(), body)
        };
        let one = |reply, fail: &dyn Fn(String) -> String| judge_rows(reply, 1, fail);
        let good: &[u64] = &[3, 7, N - 1];
        // the raw word 0x0101…0107 is also a one-row answer — length 7,
        // then the varint delta row 1..=7 — only the Content-Type tells
        // them apart
        let word = u64::from_le_bytes([7, 1, 1, 1, 1, 1, 1, 1]);
        assert!(matches!(
            one(rows(&word.to_le_bytes()), &|d| d),
            Attempt::Done(r) if r == [(1..=7).collect::<Vec<u64>>()]
        ));
        let bad: [(&str, Reply); 6] = [
            ("raw words", raw(good)),
            ("raw words that decode as a row", raw(&[word])),
            (
                "text/plain 200",
                (200, "text/plain".into(), one_row(good).2),
            ),
            // varint gaps cannot go backwards; the closest a vd row gets
            // to a swapped pair is the zero gap of a repeated column
            ("zero gap", rows(&[2, 3, 0])),
            ("truncated varint", rows(&[2, 3, 0x84])),
            ("column n_C", one_row(&[3, N])),
        ];
        for (what, reply) in &bad {
            fails_over(what, reply, &one_row(good), one, &vec![good.to_vec()]);
        }
        // with no healthy replica left the fetch fails as a transport
        // error naming the defect — never an answer, never a mismatch
        let defects = [
            (raw(&[word]), "Content-Type \"application/octet-stream\""),
            (rows(&[2, 3, 0]), "not a strictly ascending"),
            (one_row(&[3, N]), "has only 50"),
        ];
        for (reply, says) in defects {
            match one(reply, &|d| d) {
                Attempt::Transport(e) => assert!(e.contains(says), "{e}"),
                _ => panic!("{says}: must be a transport-class failure"),
            }
        }
        // the contract's edges are legal rows
        for row in [&[][..], &[0], &[N - 1]] {
            assert!(matches!(one(one_row(row), &|d| d), Attempt::Done(r) if r == [row]));
        }

        // `/wedges` for two neighbours of a 3-entry row: one or two (count,
        // checks) varint pairs, counts ≤ 3, checks ≥ count, nothing more
        let wedges = |body: &[u8]| -> Reply {
            let ctype = crate::http::WEDGES_CONTENT_TYPE.to_string();
            (200, ctype, body.to_vec())
        };
        let judge = |reply, fail: &dyn Fn(String) -> String| decode_wedges(reply, 2, 3, fail);
        let good_wedges = wedges(&[1, 4, 0, 0x82, 0x01]); // (1, 4), (0, 130)
        let torn = [
            ("empty body", wedges(&[])),
            ("half a pair", wedges(&[1, 4, 0])),
            (
                "three pairs for two neighbours",
                wedges(&[1, 4, 0, 2, 0, 1]),
            ),
            ("truncated varint", wedges(&[1, 4, 0, 0x82])),
            ("trailing byte", wedges(&[1, 4, 0, 2, 0])),
            ("count above |row(v)|", wedges(&[4, 9, 0, 2])),
            ("checks below count", wedges(&[2, 1, 0, 2])),
            (
                "overflowing varint",
                wedges(&[
                    1, 4, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
                ]),
            ),
            ("5xx", (503, "text/plain".into(), b"error: busy\n".to_vec())),
        ];
        for (what, reply) in &torn {
            fails_over(what, reply, &good_wedges, judge, &(2, 1, 134));
            assert!(
                matches!(judge(reply.clone(), &|d| d), Attempt::Transport(_)),
                "{what}"
            );
        }
        // a refusal every replica would repeat is final: no failover
        for status in [400, 404] {
            let refusal = (status, "text/plain".into(), b"error: no\n".to_vec());
            match judge(refusal, &|d| d) {
                Attempt::Final(ServeError::Remote(e)) => assert!(e.contains("error: no"), "{e}"),
                _ => panic!("a {status} must be final"),
            }
        }
        // the contract's edges are legal replies: a full count, a prefix of
        // one pair (the rest is asked again), nothing asked
        assert!(matches!(
            judge(wedges(&[3, 3, 0, 0]), &|d| d),
            Attempt::Done((2, 3, 3))
        ));
        assert!(matches!(
            judge(wedges(&[1, 4]), &|d| d),
            Attempt::Done((1, 1, 4))
        ));
        let none = decode_wedges(wedges(&[]), 0, 0, &|d| d);
        assert!(matches!(none, Attempt::Done((0, 0, 0))));
        // untyped bytes that frame as one (count, checks) pair are not one
        let one = |reply, fail: &dyn Fn(String) -> String| decode_wedges(reply, 1, 3, fail);
        let octets = (200, "application/octet-stream".into(), vec![1, 1]);
        let good = wedges(&[1, 4]);
        fails_over("octet-stream 200", &octets, &good, one, &(1, 1, 4));

        // `/rows` for two vertices: one or two length-prefixed vd rows,
        // each strictly ascending below n_C, nothing more
        let judge = |reply, fail: &dyn Fn(String) -> String| judge_rows(reply, 2, fail);
        // [3, 7] and [] — an empty row is a zero length
        let good_rows = rows(&[2, 3, 4, 0]);
        let torn = [
            ("no row", rows(&[])),
            ("three rows for two vertices", rows(&[2, 3, 4, 0, 1, 9])),
            ("length past the body", rows(&[2, 3, 4, 3, 1])),
            ("truncated length varint", rows(&[2, 3, 4, 0x80])),
            ("trailing byte", rows(&[2, 3, 4, 0, 5])),
            ("zero gap", rows(&[2, 3, 0, 0])),
            ("truncated row varint", rows(&[2, 3, 0x84, 0])),
            ("column n_C", rows(&[2, 3, 47, 0])),
            (
                "row Content-Type",
                (
                    200,
                    crate::http::ROW_VD_CONTENT_TYPE.into(),
                    good_rows.2.clone(),
                ),
            ),
            ("5xx", (503, "text/plain".into(), b"error: busy\n".to_vec())),
        ];
        let want = vec![vec![3, 7], vec![]];
        for (what, reply) in &torn {
            fails_over(what, reply, &good_rows, judge, &want);
            assert!(
                matches!(judge(reply.clone(), &|d| d), Attempt::Transport(_)),
                "{what}"
            );
        }
        for status in [400, 404] {
            let refusal = (status, "text/plain".into(), b"error: no\n".to_vec());
            match judge(refusal, &|d| d) {
                Attempt::Final(ServeError::Remote(e)) => assert!(e.contains("error: no"), "{e}"),
                _ => panic!("a {status} must be final"),
            }
        }
        // the contract's edges are legal replies: a prefix of one row (the
        // rest is asked again), a row ending at n_C - 1, nothing asked
        assert!(matches!(
            judge(rows(&[2, 3, 4]), &|d| d),
            Attempt::Done(r) if r == [vec![3, 7]]
        ));
        assert!(matches!(
            judge(rows(&[1, 49, 0]), &|d| d),
            Attempt::Done(r) if r == [vec![N - 1], vec![]]
        ));
        let none = decode_rows(rows(&[]), 0, N, &|d| d);
        assert!(matches!(none, Attempt::Done(r) if r.spans.is_empty()));
    }

    /// Every row of a `/rows` answer, decoded.
    pub(crate) fn decoded(rows: &PeerRows) -> Vec<Vec<u64>> {
        (0..rows.spans.len()).map(|i| rows.decode(i)).collect()
    }

    /// What the querying node sends is what the answering node decodes,
    /// and the answering node refuses every body that breaks the spec.
    #[test]
    fn wedge_requests_roundtrip_and_bad_bodies_are_refused() {
        const N: u64 = 50;
        let row = [3u64, 7, 8, 49];
        let ask = WedgeAsk::parse(&encode_wedges(5, &row, &[7, 49]), N).unwrap();
        assert_eq!(
            (ask.v, &ask.row_v[..], &ask.asked[..]),
            (5, &row[..], &[7, 49][..])
        );
        let empty = WedgeAsk::parse(&encode_wedges(0, &[], &[]), N).unwrap();
        assert!(empty.row_v.is_empty() && empty.asked.is_empty());

        let body = |v: u64, row: &[u8], asked: &[u8]| {
            let mut b = Vec::new();
            kron_stream::csr::varint_push(v, &mut b);
            kron_stream::csr::varint_push(row.len() as u64, &mut b);
            b.extend_from_slice(row);
            b.extend_from_slice(asked);
            b
        };
        let refused = [
            ("no header", vec![], "two varints"),
            ("truncated v", vec![0x80], "two varints"),
            ("row length past the body", vec![5, 9, 3], "overruns"),
            ("v outside the product", body(N, &[3], &[]), "not a vertex"),
            (
                "repeated column",
                body(5, &[3, 0], &[]),
                "row is not a strictly ascending",
            ),
            ("column n_C", body(5, &[3, 47], &[]), "has only 50"),
            (
                "asked repeats",
                body(5, &[3, 4], &[3, 0]),
                "asked neighbours are not",
            ),
            (
                "asked outside the row",
                body(5, &[3, 4], &[4]),
                "asked vertex 4 is not in row 5",
            ),
        ];
        for (what, bytes, says) in refused {
            match WedgeAsk::parse(&bytes, N) {
                Err(e) => assert!(e.contains(says), "{what}: {e}"),
                Ok(_) => panic!("{what} must be refused"),
            }
        }
    }

    #[test]
    fn unreachable_peer_is_a_bounded_remote_error() {
        let remote = RemoteShards::new(
            // port 1 on loopback: nothing listens there
            &[PeerSpec::parse("1..2=127.0.0.1:1").unwrap()],
            0..1,
            2,
            100,
            Duration::from_millis(200),
        )
        .unwrap();
        let Err(err) = remote.rows(remote.replicas(1), &[5]) else {
            panic!("nothing listens on port 1");
        };
        assert!(matches!(err, ServeError::Remote(_)), "{err}");
        assert!(err.to_string().contains("127.0.0.1:1"), "{err}");
        assert!(err.to_string().contains("all replicas failed"), "{err}");
    }
}

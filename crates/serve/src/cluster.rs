//! Multi-node shard-subset serving: peer specs, replica-aware shard →
//! peer resolution, and the remote-row client with failover.
//!
//! One machine stops being enough exactly when the paper's products get
//! interesting: a trillion-entry CSR run directory does not fit one
//! node's disks or page cache. The cluster answer keeps the wire protocol
//! and the run-directory format unchanged and splits only *residency*:
//! each node opens a contiguous **shard subset**
//! ([`kron_stream::ShardSet::open_with`]) of the same run directory and
//! serves every query it receives — local rows zero-copy off its own
//! mappings, non-resident rows fetched from a peer over the internal
//! `GET /row?shard=S&v=V&enc=vd` endpoint. The fetcher asks for the
//! varint delta encoding and decodes by the response's `Content-Type`
//! (`application/kron-row-vd` → varint, `application/octet-stream` → raw
//! little-endian `u64` words), so either side may be older without
//! corrupting a row; see `ARCHITECTURE.md` § "Cluster serving" for the
//! normative wire format.
//!
//! The **ownership map** has two layers, both static:
//!
//! * *shard → vertex range* comes from the run directory's manifests —
//!   every node reads all of them (they are small JSON files), so routing
//!   any product vertex to its owning shard needs no network round trip;
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
//! with the router. This module only says what a `/row` answer means
//! (which statuses fail over, how a body decodes). Fetched rows flow
//! through the engine's hot-row [`crate::RowCache`] when one is
//! configured — remote rows are exactly the expensive-fetch case the LRU
//! exists for.
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
use std::sync::Arc;
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

    /// Fetch the adjacency row of `v` in `shard` from one of the shard's
    /// replicas, failing over on transport errors.
    pub(crate) fn fetch(&self, shard: usize, v: u64) -> Result<Arc<[u64]>, ServeError> {
        let replicas = &self.by_shard[shard];
        assert!(
            !replicas.is_empty(),
            "fetch() is only called for shards the table maps to peers"
        );
        // Ask for the varint delta encoding; the answer's Content-Type —
        // not the request — decides how to decode, so an older peer that
        // ignores `enc` and answers raw words still decodes correctly.
        let path = format!("/row?shard={shard}&v={v}&enc=vd");
        let outcome = failover(
            replicas.iter().map(|&i| &self.peers[i]),
            self.rr.fetch_add(1, Ordering::Relaxed),
            &now_ms,
            |peer| match peer.exchange(Method::Get, &path) {
                Err(detail) => Attempt::Transport(detail),
                Ok(reply) => decode_row(reply, self.num_vertices, &|detail| {
                    format!("peer {} (/row shard {shard} v {v}): {detail}", peer.label)
                }),
            },
        );
        match outcome {
            Attempt::Done(row) => Ok(row),
            Attempt::Transport(failures) => Err(ServeError::Remote(format!(
                "all replicas failed for /row shard {shard} v {v}: {failures}"
            ))),
            Attempt::Final(e) => Err(e),
        }
    }
}

/// Classify one framed `/row` answer for the failover loop, decode its
/// body by the declared `Content-Type`, and validate the row: it came
/// from outside this process, and the binary searches behind `has_edge`
/// and the triangle kernels need strictly ascending columns below `n_C`.
fn decode_row(
    (status, ctype, body): Reply,
    num_vertices: u64,
    fail: &dyn Fn(String) -> String,
) -> Attempt<Arc<[u64]>, ServeError> {
    if status != 200 {
        let detail = fail(format!(
            "status {status}: {}",
            String::from_utf8_lossy(&body).trim()
        ));
        return if status >= 500 {
            // the replica answered but could not serve — fail over
            Attempt::Transport(detail)
        } else {
            // the peer's text/plain error body explains (not owned here /
            // out of range / malformed) — config skew between nodes; a
            // deterministic answer every replica would repeat, so no
            // failover
            Attempt::Final(ServeError::Remote(detail))
        };
    }
    // A body that does not frame, or frames a row no artifact can hold, is
    // a torn/corrupted stream — another replica may get it right.
    let mut row = Vec::new();
    if ctype == crate::http::ROW_VD_CONTENT_TYPE {
        if !kron_stream::decode_row_vd(&body, &mut row) {
            return Attempt::Transport(fail(format!(
                "body of {} bytes is not a well-formed varint delta row",
                body.len()
            )));
        }
    } else if body.len() % 8 != 0 {
        return Attempt::Transport(fail(format!(
            "body of {} bytes is not a whole number of u64 words",
            body.len()
        )));
    } else {
        row.extend(
            body.chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"))),
        );
    }
    if row.windows(2).any(|w| w[0] >= w[1]) {
        return Attempt::Transport(fail("row columns are not strictly ascending".into()));
    }
    if let Some(&q) = row.last().filter(|&&q| q >= num_vertices) {
        return Attempt::Transport(fail(format!(
            "row names vertex {q}, but the product has only {num_vertices}"
        )));
    }
    Attempt::Done(row.into())
}

#[cfg(test)]
mod tests {
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

    /// A peer's row is input from outside the process: a body that frames
    /// but breaks the row contract (strictly ascending columns below
    /// `n_C`) is the torn-body class — the replica is charged, the next
    /// one answers, nothing is served from it. Scripted replies over the
    /// real failover loop and peer table; no socket is opened.
    #[test]
    fn peer_rows_breaking_the_row_contract_fail_over_to_the_next_replica() {
        const N: u64 = 50;
        let raw = |row: &[u64]| -> Reply {
            let body = row.iter().flat_map(|w| w.to_le_bytes()).collect();
            (200, "application/octet-stream".into(), body)
        };
        let vd = |body: &[u8]| -> Reply {
            (
                200,
                crate::http::ROW_VD_CONTENT_TYPE.to_string(),
                body.to_vec(),
            )
        };
        let vd_of = |row: &[u64]| {
            let mut body = Vec::new();
            kron_stream::encode_row_vd(row, &mut body);
            vd(&body)
        };
        let good: &[u64] = &[3, 7, N - 1];
        let bad: [(&str, Reply); 6] = [
            ("raw swapped pair", raw(&[7, 3])),
            ("raw repeated column", raw(&[3, 3])),
            ("raw column n_C", raw(&[3, N])),
            ("raw column far outside", raw(&[u64::MAX])),
            // varint gaps cannot go backwards; the closest a vd body gets
            // to a swapped pair is the zero gap of a repeated column
            ("vd zero gap", vd(&[3, 0])),
            ("vd column n_C", vd_of(&[3, N])),
        ];
        for (what, reply) in bad {
            for good_reply in [raw(good), vd_of(good)] {
                let specs = [
                    PeerSpec::parse("1..2=bad.invalid:1").unwrap(),
                    PeerSpec::parse("1..2=good.invalid:1").unwrap(),
                ];
                let remote = RemoteShards::new(&specs, 0..1, 2, N, DEFAULT_PEER_TIMEOUT).unwrap();
                let outcome = failover(remote.peers.iter(), 0, &|| 0, |peer| {
                    let reply = if peer.addr.starts_with("bad") {
                        reply.clone()
                    } else {
                        good_reply.clone()
                    };
                    decode_row(reply, N, &|detail| format!("peer {}: {detail}", peer.label))
                });
                match outcome {
                    Attempt::Done(row) => assert_eq!(&*row, good, "{what}"),
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
        }
        // with no healthy replica left the fetch fails as a transport
        // error naming the defect — never an answer, never a mismatch
        match decode_row(raw(&[7, 3]), N, &|d| d) {
            Attempt::Transport(e) => assert!(e.contains("not strictly ascending"), "{e}"),
            _ => panic!("a swapped pair must be a transport-class failure"),
        }
        match decode_row(vd_of(&[3, N]), N, &|d| d) {
            Attempt::Transport(e) => assert!(e.contains("has only 50"), "{e}"),
            _ => panic!("an out-of-range column must be a transport-class failure"),
        }
        // the contract's edges are legal rows
        for row in [&[][..], &[0], &[N - 1]] {
            assert!(matches!(decode_row(raw(row), N, &|d| d), Attempt::Done(r) if *r == *row));
            assert!(matches!(decode_row(vd_of(row), N, &|d| d), Attempt::Done(r) if *r == *row));
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
        let err = remote.fetch(1, 5).unwrap_err();
        assert!(matches!(err, ServeError::Remote(_)), "{err}");
        assert!(err.to_string().contains("127.0.0.1:1"), "{err}");
        assert!(err.to_string().contains("all replicas failed"), "{err}");
    }
}

//! The peer-transport policy, implemented once for the node-side
//! remote-row client ([`crate::cluster`]) and the router
//! ([`crate::router`]): a [`Peer`] with its capped keep-alive pool and
//! [`PeerHealth`], the pooled exchange with its single stale-connection
//! retry, the health gate with its `/healthz` probe, the round-robin
//! [`failover`] loop, the shard-coverage check, and the per-peer `/stats`
//! fields. The rules themselves — a transport failure fails over, a
//! deterministic answer does not, the 3rd consecutive failure ejects, a
//! `/healthz` probe on a doubling backoff re-admits — are normative in
//! `ARCHITECTURE.md` § "Replication, failover, and health".

use crate::http::Client;
use kron_stream::json::Json;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Consecutive transport failures after which a peer is ejected
/// (marked down and skipped until a health probe succeeds).
const EJECT_AFTER: u64 = 3;

/// Backoff (ms) before the first `/healthz` probe of an ejected peer.
const PROBE_BACKOFF_INITIAL_MS: u64 = 500;

/// Cap (ms) on the probe backoff, which doubles after every failed probe.
const PROBE_BACKOFF_MAX_MS: u64 = 8_000;

/// Idle connections kept per peer. Concurrent batch workers and the
/// router's re-discovery ticks each hand a connection back, so without a
/// cap a burst of N leaves N idle sockets per peer for the process
/// lifetime.
const POOL_CAP: usize = 8;

/// Milliseconds on the process-wide monotonic clock — the production
/// argument for every `now` parameter below (tests pass their own).
pub(crate) fn now_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// What the health gate says about using a peer right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Peer is up — use it.
    Up,
    /// Peer is down and its probe backoff has elapsed — probe `/healthz`
    /// before using it.
    ProbeDue,
    /// Peer is down and the backoff has not elapsed — skip it.
    Skip,
}

/// Per-peer health state and counters.
///
/// * a fetch/forward **success** resets the consecutive-failure count and
///   restores a down peer;
/// * a transport **failure** (connect error, timeout, 5xx, malformed row
///   body) increments it; at [`EJECT_AFTER`] the peer is ejected: marked
///   down, skipped by replica selection, and probed via `GET /healthz`
///   no sooner than a backoff that starts at [`PROBE_BACKOFF_INITIAL_MS`]
///   and doubles (to [`PROBE_BACKOFF_MAX_MS`]) after every failed probe.
///
/// Time enters as a `now_ms` argument (see [`now_ms`]), so the whole
/// state machine is testable without sleeping.
#[derive(Debug, Default)]
pub(crate) struct PeerHealth {
    consecutive_failures: AtomicU64,
    down: AtomicBool,
    /// Clock reading at which the next `/healthz` probe may run.
    next_probe_ms: AtomicU64,
    /// Current probe backoff in ms.
    backoff_ms: AtomicU64,
    /// Successful fetches/forwards served by this peer.
    fetches: AtomicU64,
    /// Failed attempts on this peer that moved the caller on (or failed
    /// the request, when it was the last replica).
    failovers: AtomicU64,
    /// Up → down transitions.
    ejections: AtomicU64,
}

impl PeerHealth {
    pub(crate) fn is_up(&self) -> bool {
        !self.down.load(Ordering::Relaxed)
    }

    /// May this peer be used at `now_ms` (up, or down with the probe
    /// backoff elapsed)?
    fn gate(&self, now_ms: u64) -> Gate {
        if self.is_up() {
            Gate::Up
        } else if now_ms >= self.next_probe_ms.load(Ordering::Relaxed) {
            Gate::ProbeDue
        } else {
            Gate::Skip
        }
    }

    /// A successful fetch/forward (or probe): reset failures, restore a
    /// down peer.
    pub(crate) fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.backoff_ms.store(0, Ordering::Relaxed);
        self.down.store(false, Ordering::Relaxed);
    }

    /// A request this peer answered: a success that also counts as
    /// served traffic (which a probe-only success must not look like).
    fn record_served(&self) {
        self.record_success();
        self.fetches.fetch_add(1, Ordering::Relaxed);
    }

    /// A transport failure while the peer was (believed) up: bump the
    /// failover counter and eject at [`EJECT_AFTER`] consecutive
    /// failures.
    fn record_failure(&self, now_ms: u64) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
        let n = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= EJECT_AFTER && !self.down.swap(true, Ordering::Relaxed) {
            self.ejections.fetch_add(1, Ordering::Relaxed);
            self.backoff_ms
                .store(PROBE_BACKOFF_INITIAL_MS, Ordering::Relaxed);
            self.next_probe_ms
                .store(now_ms + PROBE_BACKOFF_INITIAL_MS, Ordering::Relaxed);
        }
    }

    /// A failed `/healthz` probe of a down peer: double the backoff (to
    /// the cap) and push the next probe out.
    fn record_probe_failure(&self, now_ms: u64) {
        let doubled = (self.backoff_ms.load(Ordering::Relaxed) * 2)
            .clamp(PROBE_BACKOFF_INITIAL_MS, PROBE_BACKOFF_MAX_MS);
        self.backoff_ms.store(doubled, Ordering::Relaxed);
        self.next_probe_ms
            .store(now_ms + doubled, Ordering::Relaxed);
    }
}

/// The two request shapes a peer is ever sent. An exhaustive enum, so a
/// new verb is a compile error at the one place that writes the request
/// line rather than a silent POST.
#[derive(Clone, Copy)]
pub(crate) enum Method<'a> {
    Get,
    Post(&'a [u8]),
}

/// One framed peer response: `(status, content-type, body)`.
pub(crate) type Reply = (u16, String, Vec<u8>);

/// One cluster peer as either tier sees it: where it listens, which
/// shards it claims, a capped pool of idle keep-alive connections, and
/// its health.
#[derive(Debug)]
pub(crate) struct Peer {
    pub(crate) addr: String,
    pub(crate) shards: Range<usize>,
    /// Connect **and** read timeout of every exchange and probe.
    timeout: Duration,
    /// How error texts name this peer (`a..b=ADDR` on a node, `ADDR` on
    /// the router).
    pub(crate) label: String,
    pool: Mutex<Vec<Client>>,
    pub(crate) health: PeerHealth,
}

impl Peer {
    pub(crate) fn new(
        label: String,
        addr: String,
        shards: Range<usize>,
        timeout: Duration,
    ) -> Peer {
        Peer {
            addr,
            shards,
            timeout,
            label,
            pool: Mutex::new(Vec::new()),
            health: PeerHealth::default(),
        }
    }

    /// Hand an idle keep-alive connection (back) to the pool; dropped
    /// (closed) when the pool already holds [`POOL_CAP`].
    pub(crate) fn pool_push(&self, client: Client) {
        let mut pool = self.pool.lock().expect("peer pool lock poisoned");
        if pool.len() < POOL_CAP {
            pool.push(client);
        }
    }

    /// One request/response exchange on a pooled (or freshly dialed)
    /// connection. A transport failure on a *pooled* connection is
    /// retried once on a fresh dial — the peer may have restarted and the
    /// pooled connection gone stale — before it counts as failed.
    pub(crate) fn exchange(&self, method: Method<'_>, path: &str) -> Result<Reply, String> {
        let (verb, body) = match method {
            Method::Get => ("GET", &[][..]),
            Method::Post(body) => ("POST", body),
        };
        let fail = |detail: String| format!("peer {}: {detail}", self.label);
        let dial = || Client::connect_timeout(self.addr.as_str(), self.timeout);
        let pooled = self.pool.lock().expect("peer pool lock poisoned").pop();
        let had_pooled = pooled.is_some();
        let mut client = match pooled {
            Some(c) => c,
            None => dial().map_err(|e| fail(format!("connect: {e}")))?,
        };
        let reply = match client.request_typed(verb, path, body) {
            Ok(r) => r,
            Err(first) => {
                drop(client); // stale — never pool it again
                if !had_pooled {
                    return Err(fail(format!("{verb} {path}: {first}")));
                }
                client = dial().map_err(|e| fail(format!("reconnect after {first}: {e}")))?;
                client
                    .request_typed(verb, path, body)
                    .map_err(|e| fail(format!("{verb} {path} (retried): {e}")))?
            }
        };
        // The connection framed a full response either way — reusable.
        self.pool_push(client);
        Ok(reply)
    }

    /// The health gate: an up peer passes; a down one is probed with one
    /// `GET /healthz` on a fresh connection when its backoff has elapsed
    /// (re-admitted on 200) and skipped otherwise. A refusal is appended
    /// to `failures` in the form all-replicas-failed errors carry.
    fn admit(&self, now: &dyn Fn() -> u64, failures: &mut Vec<String>) -> bool {
        match self.health.gate(now()) {
            Gate::Up => true,
            Gate::ProbeDue => {
                let healthy = Client::connect_timeout(self.addr.as_str(), self.timeout)
                    .and_then(|mut c| c.get("/healthz"))
                    .is_ok_and(|(status, _)| status == 200);
                if healthy {
                    self.health.record_success();
                } else {
                    self.health.record_probe_failure(now());
                    failures.push(format!("peer {}: down (probe failed)", self.label));
                }
                healthy
            }
            Gate::Skip => {
                failures.push(format!("peer {}: down (awaiting probe)", self.label));
                false
            }
        }
    }

    /// This peer's `/stats` `peers[]` fields in their normative order:
    /// `peer`, `shards`, the caller's `claim_extra` (the router's vertex
    /// span), then `up`, `fetches`, `failovers`, `ejections`.
    pub(crate) fn stats_fields(
        &self,
        claim_extra: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> Vec<(&'static str, Json)> {
        let count = |c: &AtomicU64| Json::num(c.load(Ordering::Relaxed));
        let mut fields = vec![
            ("peer", Json::str(&self.addr)),
            (
                "shards",
                Json::Arr(vec![
                    Json::num(self.shards.start),
                    Json::num(self.shards.end),
                ]),
            ),
        ];
        fields.extend(claim_extra);
        fields.extend([
            ("up", Json::Bool(self.health.is_up())),
            ("fetches", count(&self.health.fetches)),
            ("failovers", count(&self.health.failovers)),
            ("ejections", count(&self.health.ejections)),
        ]);
        fields
    }
}

/// How one attempt against one replica ended, for [`failover`] — and,
/// returned by it, how the whole replica set did.
pub(crate) enum Attempt<T, E> {
    /// The replica answered; stop here.
    Done(T),
    /// A transport failure (connect error, timeout, 5xx, torn body):
    /// charge the replica and move on to the next. From [`failover`]:
    /// every replica failed, the details joined in rotation order.
    Transport(String),
    /// A deterministic answer that every replica of a consistent cluster
    /// would repeat: surface it, charge nobody, try nobody else.
    Final(E),
}

/// Round-robin failover: walk `replicas` once in rotation order from
/// `start`, health-gating each ([`Peer::admit`]) and running `attempt`
/// on those admitted, until one is [`Attempt::Done`] or
/// [`Attempt::Final`]. Success and transport failure are recorded on the
/// replica's [`PeerHealth`] here, so callers cannot diverge on what
/// counts toward ejection.
pub(crate) fn failover<'p, T, E>(
    replicas: impl ExactSizeIterator<Item = &'p Peer> + Clone,
    start: usize,
    now: &dyn Fn() -> u64,
    mut attempt: impl FnMut(&'p Peer) -> Attempt<T, E>,
) -> Attempt<T, E> {
    let n = replicas.len();
    let mut failures: Vec<String> = Vec::new();
    for peer in replicas.cycle().skip(start % n.max(1)).take(n) {
        if !peer.admit(now, &mut failures) {
            continue;
        }
        match attempt(peer) {
            Attempt::Done(answer) => {
                peer.health.record_served();
                return Attempt::Done(answer);
            }
            Attempt::Transport(detail) => {
                peer.health.record_failure(now());
                failures.push(detail);
            }
            Attempt::Final(e) => return Attempt::Final(e),
        }
    }
    Attempt::Transport(failures.join("; "))
}

/// The first shard of `0..num_shards` that none of `claims` contains —
/// overlapping claims are replicas, a gap is what both tiers refuse.
pub(crate) fn first_uncovered(
    num_shards: usize,
    claims: impl IntoIterator<Item = Range<usize>>,
) -> Option<usize> {
    let mut covered = vec![false; num_shards];
    for claim in claims {
        let (lo, hi) = (claim.start.min(num_shards), claim.end.min(num_shards));
        if lo < hi {
            covered[lo..hi].fill(true);
        }
    }
    covered.iter().position(|&c| !c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::net::TcpListener;

    const T: Duration = Duration::from_millis(200);

    fn peer(name: &str) -> Peer {
        // never dialed: every test below stays off the network
        Peer::new(name.to_string(), format!("{name}.invalid:1"), 0..1, T)
    }

    #[test]
    fn health_ejection_and_probe_backoff_sequence() {
        let h = PeerHealth::default();
        assert_eq!(h.gate(0), Gate::Up);
        h.record_failure(1_000);
        h.record_failure(1_000);
        assert!(h.is_up(), "two failures must not eject yet");
        h.record_success();
        h.record_failure(1_000);
        h.record_failure(1_000);
        assert!(h.is_up(), "a success in between resets the count");
        h.record_failure(1_000);
        assert!(!h.is_up(), "third consecutive failure ejects");
        assert_eq!(h.ejections.load(Ordering::Relaxed), 1);

        // backoff starts at 500 ms: Skip until it elapses, then ProbeDue
        assert_eq!(h.gate(1_000), Gate::Skip);
        assert_eq!(h.gate(1_499), Gate::Skip);
        assert_eq!(h.gate(1_500), Gate::ProbeDue);
        // failures while down neither re-eject nor move the probe
        h.record_failure(1_400);
        assert_eq!(h.ejections.load(Ordering::Relaxed), 1);
        assert_eq!(h.gate(1_500), Gate::ProbeDue);

        // every failed probe doubles the backoff, up to the 8 s cap
        let mut now = 1_500;
        for backoff in [1_000, 2_000, 4_000, 8_000, 8_000, 8_000] {
            h.record_probe_failure(now);
            assert_eq!(h.gate(now + backoff - 1), Gate::Skip, "backoff {backoff}");
            assert_eq!(h.gate(now + backoff), Gate::ProbeDue, "backoff {backoff}");
            now += backoff;
        }

        h.record_success();
        assert_eq!(h.gate(now), Gate::Up, "success restores the peer");
        assert_eq!(h.failovers.load(Ordering::Relaxed), 6);

        // a second ejection starts over at 500 ms, not at the old backoff
        for _ in 0..EJECT_AFTER {
            h.record_failure(now);
        }
        assert_eq!(h.ejections.load(Ordering::Relaxed), 2);
        assert_eq!(h.gate(now + 499), Gate::Skip);
        assert_eq!(h.gate(now + 500), Gate::ProbeDue);
    }

    /// Drive [`failover`] with a scripted `attempt` and a frozen clock:
    /// no socket is opened (an ejected peer stays inside its backoff, so
    /// the gate never probes).
    #[test]
    fn failover_rotates_ejects_and_names_every_replica() {
        let peers = [peer("a"), peer("b"), peer("c")];
        let frozen = || 0u64;
        let tried = Cell::new(String::new());
        let run = |start: usize, script: &dyn Fn(&Peer) -> Attempt<&'static str, u16>| {
            tried.set(String::new());
            failover(peers.iter(), start, &frozen, |p| {
                tried.set(tried.take() + &p.label);
                script(p)
            })
        };
        let transport = |p: &Peer| Attempt::Transport(format!("peer {}: boom", p.label));

        // rotation order: start picks the first candidate (mod n), the
        // walk wraps, and the first Done ends it
        for (start, order) in [(0, "abc"), (1, "bca"), (2, "cab"), (3, "abc"), (7, "bca")] {
            match run(start, &|p| {
                if p.label == order[2..] {
                    Attempt::Done("row")
                } else {
                    transport(p)
                }
            }) {
                Attempt::Done("row") => {}
                _ => panic!("start {start}: last replica answers"),
            }
            assert_eq!(tried.take(), order, "start {start}");
            for p in &peers {
                p.health.record_success(); // keep everyone below the threshold
            }
        }
        assert!(peers.iter().all(|p| p.health.is_up()));
        let served: Vec<u64> = peers
            .iter()
            .map(|p| p.health.fetches.load(Ordering::Relaxed))
            .collect();
        assert_eq!(
            served,
            [2, 1, 2],
            "only the answering replica is charged a fetch"
        );

        // Final: no failover, no failure charged, nobody else tried
        let before = peers[1].health.failovers.load(Ordering::Relaxed);
        match run(1, &|_| Attempt::Final(404)) {
            Attempt::Final(404) => {}
            _ => panic!("Final must surface as-is"),
        }
        assert_eq!(tried.take(), "b");
        assert_eq!(peers[1].health.failovers.load(Ordering::Relaxed), before);
        assert!(peers[1].health.is_up());

        // all-failed names every replica in rotation order; the 3rd
        // consecutive failure (and not the 2nd) ejects
        for round in 1..=EJECT_AFTER {
            match run(2, &transport) {
                Attempt::Transport(all) => {
                    assert_eq!(all, "peer c: boom; peer a: boom; peer b: boom");
                }
                _ => panic!("every replica failed"),
            }
            assert_eq!(tried.take(), "cab");
            let down = peers.iter().filter(|p| !p.health.is_up()).count();
            assert_eq!(
                down,
                if round < EJECT_AFTER { 0 } else { 3 },
                "round {round}"
            );
        }

        // ejected replicas are gated, not dialed: still named, in order
        match run(1, &|_| panic!("an ejected peer must not be attempted")) {
            Attempt::Transport(all) => assert_eq!(
                all,
                "peer b: down (awaiting probe); peer c: down (awaiting probe); \
                 peer a: down (awaiting probe)"
            ),
            _ => panic!("every replica is down"),
        }

        // an empty replica set fails without attempting anything
        match failover(peers[..0].iter(), 5, &frozen, |_| -> Attempt<(), ()> {
            panic!("nothing to attempt")
        }) {
            Attempt::Transport(all) => assert_eq!(all, ""),
            _ => panic!("no replica, no answer"),
        }
    }

    #[test]
    fn pool_is_capped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let p = Peer::new("p".into(), addr.to_string(), 0..1, T);
        // a burst of concurrent workers each hands its connection back
        for _ in 0..POOL_CAP + 5 {
            p.pool_push(Client::connect_timeout(addr, T).unwrap());
        }
        assert_eq!(p.pool.lock().unwrap().len(), POOL_CAP);
    }

    /// The first-gap rule itself is fuzzed through `RemoteShards::new`
    /// (`cluster.rs`); what only the router can feed this check is a
    /// claim past the run's shard count, straight from a peer's `/shards`.
    #[test]
    fn coverage_clamps_claims_to_the_run() {
        assert_eq!(first_uncovered(2, [0..1, 1..usize::MAX]), None);
        assert_eq!(first_uncovered(2, [0..1, 9..12]), Some(1));
        assert_eq!(first_uncovered(0, [0..1, 3..4]), None);
    }
}

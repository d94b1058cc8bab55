//! The point-query engine: paper statistics answered off mmap'd rows (or
//! peers' mappings, in a cluster), in closed form from factor copies, or
//! both at once with cross-checking.

use crate::cache::{RoutingReport, RoutingStats, RowCache};
use crate::cluster::{PeerSpec, RemoteShards};
use crate::oracle::FactorOracle;
use crate::server::INLINE_ROW_CAP;
use kron_analyze::LevelRows;
use kron_stream::{ShardSet, SplitMix, StreamError};
use kron_triangles::slice;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Errors of the serving subsystem.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The run directory failed to open or validate.
    Open(String),
    /// A queried vertex lies outside every shard's row range.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u64,
        /// The product's vertex count `n_C`.
        num_vertices: u64,
    },
    /// A mapped row referenced a column outside every shard — the
    /// artifact is corrupt (structural open does not hash contents; see
    /// [`ServeEngine::open_verified`]).
    Corrupt(String),
    /// The factor-copy oracle failed to load or validate.
    Oracle(String),
    /// A non-resident row could not be fetched from the peer owning its
    /// shard, or its intersections not computed there (unreachable peer,
    /// timeout, or a non-200 or malformed `/rows` / `/wedges` answer).
    /// The message names the peer, its shard range, and the row. The
    /// query — not the engine — fails; the next query retries from
    /// scratch.
    Remote(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Open(m) => write!(f, "open error: {m}"),
            ServeError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} outside all shard row ranges (n_C = {num_vertices})"
            ),
            ServeError::Corrupt(m) => write!(f, "corrupt artifact: {m}"),
            ServeError::Oracle(m) => write!(f, "oracle error: {m}"),
            ServeError::Remote(m) => write!(f, "remote row fetch failed: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StreamError> for ServeError {
    fn from(e: StreamError) -> Self {
        ServeError::Open(e.to_string())
    }
}

/// Which machinery answers each query.
///
/// The three modes share one contract: identical answers (and identical
/// out-of-range errors) on every query. [`AnswerSource::CrossCheck`] turns
/// that contract into a runtime property.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AnswerSource {
    /// Walk the mmap'd CSR shards (zero-copy rows, sorted intersections).
    #[default]
    Artifact,
    /// Evaluate the paper's closed forms on the run directory's factor
    /// copies — degree and `t_C(v)` in `O(1)`, `has_edge` and `Δ_C` by
    /// two binary searches in factor rows. No shard I/O per query.
    Oracle,
    /// Compute both, *return the artifact answer*, and record every
    /// disagreement — a live conformance monitor for corrupted or stale
    /// run directories. Every answer is checked.
    CrossCheck,
}

impl AnswerSource {
    /// Canonical name, as accepted by `--source` on the CLI and written
    /// by `Display`.
    pub fn as_str(self) -> &'static str {
        match self {
            AnswerSource::Artifact => "artifact",
            AnswerSource::Oracle => "oracle",
            AnswerSource::CrossCheck => "cross-check",
        }
    }

    /// Whether this source checks its answers against the closed forms:
    /// true for [`AnswerSource::CrossCheck`] only. The one place that says
    /// which sources check.
    pub fn checks(self) -> bool {
        self == AnswerSource::CrossCheck
    }

    /// Parse a canonical name: `artifact`, `oracle` or `cross-check`.
    ///
    /// # Errors
    ///
    /// A message naming the unrecognized source and the valid ones.
    pub fn parse(s: &str) -> Result<AnswerSource, String> {
        [
            AnswerSource::Artifact,
            AnswerSource::Oracle,
            AnswerSource::CrossCheck,
        ]
        .into_iter()
        .find(|source| source.as_str() == s)
        .ok_or_else(|| {
            format!("unknown answer source {s:?} (expected artifact, oracle, or cross-check)")
        })
    }
}

impl std::fmt::Display for AnswerSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded cross-check disagreement: the query and both rendered
/// answers (an `Err` renders as `error: …`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// The query, in the `kron serve` line format.
    pub query: String,
    /// What the artifact path answered.
    pub artifact: String,
    /// What the closed-form oracle answered.
    pub oracle: String,
}

impl Mismatch {
    /// The mismatch as a JSON object (the shape `/stats` serves).
    pub fn to_json(&self) -> kron_stream::json::Json {
        use kron_stream::json::Json;
        Json::obj(vec![
            ("query", Json::str(&self.query)),
            ("artifact", Json::str(&self.artifact)),
            ("oracle", Json::str(&self.oracle)),
        ])
    }
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: artifact says {}, oracle says {}",
            self.query, self.artifact, self.oracle
        )
    }
}

/// How to open a run directory: validation depth, answer source, the
/// hot-row cache size, and (for a cluster node) the claimed shard subset
/// plus the peers serving the rest.
#[derive(Clone, Debug)]
pub struct OpenOptions {
    /// Recompute every shard's content checksum once at open
    /// (see [`ShardSet::open_verified`]). Default `true`. Ignored in pure
    /// [`AnswerSource::Oracle`] mode, which never reads artifact contents
    /// (see [`ServeEngine::open_with`]). With a [`OpenOptions::shard_subset`],
    /// only the claimed shards' contents are hashed (the rest are not
    /// resident).
    pub verify_checksums: bool,
    /// Which machinery answers queries. Default [`AnswerSource::Artifact`].
    /// [`AnswerSource::Oracle`] answers and [`AnswerSource::CrossCheck`]
    /// checks every answer from the product the shard set loaded from the
    /// factor copies at open.
    pub source: AnswerSource,
    /// Byte budget of the LRU over the hot decoded rows of resident
    /// neighbours that the artifact triangle kernels read (each row
    /// charges its decoded payload, 8 bytes per entry); `0` disables it
    /// (pure zero-copy). In a cluster no far row enters it. The CLI
    /// accepts `--cache 512m`-style sizes.
    pub row_cache_bytes: u64,
    /// Open only this contiguous shard range (`kron serve --shards a..b`):
    /// the multi-node case. `None` (the default) opens every shard. A
    /// partial subset requires [`OpenOptions::peers`] covering every
    /// non-claimed shard — the ownership map must be complete at open.
    pub shard_subset: Option<std::ops::Range<usize>>,
    /// The other nodes of the cluster and the shard ranges they serve
    /// (`--peers a..b=ADDR,…`). Together with the claimed subset these
    /// must **cover** `0..shards`; claims may overlap — a shard several
    /// entries claim has several replicas, and fetches rotate and fail
    /// over across them. Empty (the default) for a single-node engine.
    pub peers: Vec<PeerSpec>,
    /// Connect/read timeout for node-to-node row fetches. Default
    /// [`crate::cluster::DEFAULT_PEER_TIMEOUT`].
    pub peer_timeout: Duration,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            verify_checksums: true,
            source: AnswerSource::Artifact,
            row_cache_bytes: 0,
            shard_subset: None,
            peers: Vec::new(),
            peer_timeout: crate::cluster::DEFAULT_PEER_TIMEOUT,
        }
    }
}

/// Detail of a cross-check disagreement kept in the log; the counter keeps
/// counting past this many.
const MISMATCH_LOG_CAP: usize = 64;

/// The cross-check verdict rule, stated once: does the artifact answer
/// `art` disagree with the oracle answer `ora`? Two answers disagree
/// unless `same` accepts them. A remote-fetch failure on the artifact
/// side observed nothing about the artifact bytes, so it is no verdict —
/// counting it would poison the node's exit-code certification (and the
/// "corrupt or stale — re-verify" supervisor contract) over a network
/// blip, while the query itself already failed loudly. Both sides failing
/// (e.g. both out of range) is agreement; one side failing while the
/// other answers is exactly what cross-check exists to flag.
fn disagree<T>(
    art: Result<&T, &ServeError>,
    ora: Result<&T, &ServeError>,
    same: impl FnOnce(&T, &T) -> bool,
) -> bool {
    match (art, ora) {
        (Ok(a), Ok(o)) => !same(a, o),
        (Err(ServeError::Remote(_)), _) | (Err(_), Err(_)) => false,
        _ => true,
    }
}

/// One side of a recorded disagreement: the answer as `render` shows it,
/// an error as `error: …`.
fn show<T>(r: Result<&T, &ServeError>, render: impl Fn(&T) -> String) -> String {
    match r {
        Ok(v) => render(v),
        Err(e) => format!("error: {e}"),
    }
}

/// A read-only query engine over an opened [`ShardSet`], answering from a
/// configurable [`AnswerSource`].
///
/// In [`AnswerSource::Artifact`] mode every query routes to the shard
/// owning the relevant row(s) and works on zero-copy `&[u64]` slices out
/// of the mappings — the product graph is never loaded, only its on-disk
/// CSR artifacts are touched, one page at a time. In
/// [`AnswerSource::Oracle`] mode the same queries are answered in closed
/// form from the run directory's factor copies (the paper's Thms. 1/2 and
/// their loop generalizations) with no shard I/O at all. In
/// [`AnswerSource::CrossCheck`] mode both run, the artifact answer is
/// returned, and every disagreement is counted and logged — see
/// [`Self::mismatch_count`] / [`Self::mismatches`].
///
/// Semantics match the in-memory `kron::KronProduct` and `kron-triangles`
/// kernels exactly (loops excluded from degrees and triangles per the
/// paper's Rem. 3) in every mode.
///
/// The engine is `Sync`: point queries borrow the mappings immutably (the
/// mismatch log, cache, and routing counters synchronize internally), so
/// a batch driver may fan queries out across threads freely.
#[derive(Debug)]
pub struct ServeEngine {
    set: ShardSet,
    source: AnswerSource,
    oracle: Option<FactorOracle>,
    cache: Option<RowCache>,
    /// Peer table for non-resident shards (`None` on a single-node
    /// engine whose subset is complete).
    remote: Option<RemoteShards>,
    routing: RoutingStats,
    mismatch_count: AtomicU64,
    mismatch_log: Mutex<Vec<Mismatch>>,
    /// Answers checked against the closed forms: point queries answered
    /// under [`AnswerSource::CrossCheck`] plus paths certified.
    checked: AtomicU64,
}

impl ServeEngine {
    /// Open a run directory with structural validation only (manifest /
    /// header cross-checks and range tiling; no content hashing), serving
    /// from the artifact.
    ///
    /// # Errors
    ///
    /// [`ServeError::Open`] when the run directory is missing, malformed,
    /// or structurally inconsistent.
    pub fn open(dir: &Path) -> Result<ServeEngine, ServeError> {
        Self::open_with(
            dir,
            &OpenOptions {
                verify_checksums: false,
                ..OpenOptions::default()
            },
        )
    }

    /// Open a run directory, verifying every shard's content checksum
    /// once, serving from the artifact; afterwards queries trust the
    /// mappings.
    ///
    /// # Errors
    ///
    /// [`ServeError::Open`] as for [`ServeEngine::open`], plus any shard
    /// whose mapped contents fail the manifest checksum.
    pub fn open_verified(dir: &Path) -> Result<ServeEngine, ServeError> {
        Self::open_with(dir, &OpenOptions::default())
    }

    /// Open a run directory with full control over validation depth,
    /// answer source, and the hot-row cache.
    ///
    /// Pure [`AnswerSource::Oracle`] mode never reads artifact contents
    /// per query, so `verify_checksums` is ignored there: the shards are
    /// opened structurally (manifest/header cross-checks only) and oracle
    /// startup stays `O(nnz(A) + nnz(B))` instead of re-hashing every
    /// mapped byte. Audit artifact contents with `verify-shards` or a
    /// cross-check/artifact engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::Open`] for a directory that fails the requested
    /// validation depth — missing or stale factor copies included, for
    /// every source, since the shard set loads them — or an incomplete
    /// cluster ownership map (subset + peers must cover every shard;
    /// overlapping claims are replicas and are legal).
    pub fn open_with(dir: &Path, opts: &OpenOptions) -> Result<ServeEngine, ServeError> {
        let verify = opts.verify_checksums && opts.source != AnswerSource::Oracle;
        let set = ShardSet::open_with(dir, opts.shard_subset.clone(), verify)?;
        // A partial subset (or any configured peers) needs the full
        // ownership map up front: every non-resident shard must have at
        // least one serving replica (overlapping claims are replicas).
        let remote = (!set.is_complete() || !opts.peers.is_empty())
            .then(|| {
                RemoteShards::new(
                    &opts.peers,
                    set.subset(),
                    set.num_shards(),
                    set.num_vertices(),
                    opts.peer_timeout,
                )
            })
            .transpose()?;
        // every source but the artifact walk answers or checks in closed form
        let oracle = (opts.source != AnswerSource::Artifact)
            .then(|| FactorOracle::new(set.product().clone()));
        let routing = RoutingStats::new(set.num_shards());
        Ok(ServeEngine {
            set,
            source: opts.source,
            oracle,
            cache: (opts.row_cache_bytes > 0).then(|| RowCache::new(opts.row_cache_bytes)),
            remote,
            routing,
            mismatch_count: AtomicU64::new(0),
            mismatch_log: Mutex::new(Vec::new()),
            checked: AtomicU64::new(0),
        })
    }

    /// The underlying shard set.
    pub fn shard_set(&self) -> &ShardSet {
        &self.set
    }

    /// The configured answer source.
    pub fn source(&self) -> AnswerSource {
        self.source
    }

    /// The factor-copy oracle, when the engine was opened in
    /// [`AnswerSource::Oracle`] or [`AnswerSource::CrossCheck`] mode.
    pub fn oracle(&self) -> Option<&FactorOracle> {
        self.oracle.as_ref()
    }

    /// Cross-check disagreements observed so far (0 outside
    /// [`AnswerSource::CrossCheck`] mode).
    pub fn mismatch_count(&self) -> u64 {
        self.mismatch_count.load(Ordering::Relaxed)
    }

    /// Answers checked against the closed forms so far: under
    /// [`AnswerSource::CrossCheck`], the point queries answered plus the
    /// paths certified; 0 under any other source.
    pub fn sampled_checks(&self) -> u64 {
        self.checked.load(Ordering::Relaxed)
    }

    /// Snapshot of the recorded disagreements (detail is kept for the
    /// first 64; [`Self::mismatch_count`] keeps counting past that).
    pub fn mismatches(&self) -> Vec<Mismatch> {
        self.mismatch_log.lock().unwrap().clone()
    }

    /// Snapshot of the per-shard routing and row-cache counters,
    /// including the cache's resident bytes at snapshot time.
    pub fn routing(&self) -> RoutingReport {
        let mut report = self.routing.report();
        report.cache_bytes = self.cache.as_ref().map_or(0, RowCache::bytes);
        report
    }

    /// The cluster peers this engine fetches non-resident rows from, in
    /// `--peers` order (empty on a single-node engine).
    pub fn remote_peers(&self) -> Vec<PeerSpec> {
        self.remote.as_ref().map_or_else(Vec::new, |r| r.specs())
    }

    /// The peer table (`None` on a single-node engine) — the server's
    /// `/stats` surfaces its per-replica health counters.
    pub(crate) fn remote(&self) -> Option<&RemoteShards> {
        self.remote.as_ref()
    }

    /// Product vertex count `n_C`.
    pub fn num_vertices(&self) -> u64 {
        self.set.num_vertices()
    }

    /// Where `shard`'s rows live when not here: the peer table and the
    /// replicas to ask, or `None` for a resident shard. The one place that
    /// says whether a row is far.
    fn far(&self, shard: usize) -> Option<(&RemoteShards, &[usize])> {
        let remote = self.remote.as_ref()?;
        let far = self.set.local(shard).is_none();
        far.then(|| (remote, remote.replicas(shard)))
    }

    /// The row of `v` off the mapping of `shard`, which routing put `v` in
    /// and [`Self::far`] found resident: zero-copy (v1) or decoded (csr2).
    /// Counts the fetch.
    fn resident_row(&self, shard: usize, v: u64) -> Result<Cow<'_, [u64]>, ServeError> {
        self.routing.record_fetch(shard);
        // admission matched the mapped header to the shard's range, so
        // only a csr2 row whose bytes do not decode can be missing here
        let row = self.set.local(shard).and_then(|open| open.reader.row(v));
        row.ok_or_else(|| ServeError::Corrupt(format!("shard {shard}: row {v} does not decode")))
    }

    /// `with` applied to the row of `u`, a neighbour in resident `shard`
    /// that the triangle loop intersects with: the row is lent out of the
    /// LRU when one is configured (a miss is read off the mapping, a copy
    /// inserted, and the read row lent), read in place otherwise. The only
    /// reader and writer of the LRU.
    fn neighbour_row<R>(
        &self,
        shard: usize,
        u: u64,
        with: impl FnOnce(&[u64]) -> R,
    ) -> Result<R, ServeError> {
        let Some(cache) = &self.cache else {
            return Ok(with(&self.resident_row(shard, u)?));
        };
        if let Some(row) = cache.get(u) {
            self.routing.record_hit();
            return Ok(with(&row));
        }
        self.routing.record_miss();
        let row = self.resident_row(shard, u)?;
        cache.insert(u, Arc::from(&*row));
        Ok(with(&row))
    }

    pub(crate) fn out_of_range(&self, vertex: u64) -> ServeError {
        ServeError::VertexOutOfRange {
            vertex,
            num_vertices: self.set.num_vertices(),
        }
    }

    /// The adjacency row of a vertex the query itself named: read in
    /// place off a resident mapping, or asked of a replica of its shard in
    /// a one-vertex `POST /rows` (one `shard_fetches`, one
    /// `remote_fetches`). Neither touches the LRU.
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] when no shard owns `v`, plus
    /// whatever the read itself reports.
    pub(crate) fn row(&self, v: u64) -> Result<Cow<'_, [u64]>, ServeError> {
        let shard = self.set.route(v).ok_or_else(|| self.out_of_range(v))?;
        let Some((remote, replicas)) = self.far(shard) else {
            return self.resident_row(shard, v);
        };
        self.routing.record_fetch(shard);
        self.routing.record_remote();
        // a peer answers at least the first vertex asked
        Ok(Cow::Owned(remote.rows(replicas, &[v])?.decode(0)))
    }

    /// The row of `u` for a query about the pair `(u, v)`. Both ids are
    /// checked against `n_C` first, `u` before `v`, so a pair naming no
    /// vertex is refused alike on every node, whatever its peers' health.
    fn pair_row(&self, u: u64, v: u64) -> Result<Cow<'_, [u64]>, ServeError> {
        if let Some(&w) = [u, v].iter().find(|&&w| w >= self.set.num_vertices()) {
            return Err(self.out_of_range(w));
        }
        self.row(u)
    }

    /// Send `ask` the still-unanswered tail of `asked` until none is
    /// left, counting each exchange in `remote_fetches`. `ask` returns how
    /// many leading items its exchange answered — at least one, since the
    /// reply decoders refuse an empty answer to a nonempty ask — so a
    /// list takes more than one exchange only when a peer answers a
    /// prefix.
    fn ask_until_answered(
        &self,
        asked: &[u64],
        mut ask: impl FnMut(&[u64]) -> Result<usize, ServeError>,
    ) -> Result<(), ServeError> {
        let mut rest = asked;
        while !rest.is_empty() {
            self.routing.record_remote();
            rest = &rest[ask(rest)?..];
        }
        Ok(())
    }

    /// Record one cross-check disagreement: bump the counter, and keep
    /// rendered detail up to the log cap.
    fn note_mismatch(&self, query: String, artifact: String, oracle: String) {
        self.mismatch_count.fetch_add(1, Ordering::Relaxed);
        let mut log = self.mismatch_log.lock().unwrap();
        if log.len() < MISMATCH_LOG_CAP {
            log.push(Mismatch {
                query,
                artifact,
                oracle,
            });
        }
    }

    /// The one cross-check step: reconcile the artifact's answer `art`
    /// with the oracle's `ora` by [`disagree`] under `same`, and log a
    /// disagreement through [`Self::note_mismatch`], each side rendered
    /// by `render` (which sees the other side's answer too). Only a
    /// disagreement allocates. Returns the artifact's answer and whether
    /// the two disagreed. Point queries reach it through
    /// [`Self::answer`], path certificates through
    /// [`Self::certify_path`].
    fn cross_check<T>(
        &self,
        query: impl FnOnce() -> String,
        art: Result<T, ServeError>,
        ora: Result<T, ServeError>,
        same: impl FnOnce(&T, &T) -> bool,
        render: impl Fn(&T, Option<&T>) -> String,
    ) -> (Result<T, ServeError>, bool) {
        let disagreed = disagree(art.as_ref(), ora.as_ref(), same);
        if disagreed {
            let a = show(art.as_ref(), |a| render(a, ora.as_ref().ok()));
            let o = show(ora.as_ref(), |o| render(o, art.as_ref().ok()));
            self.note_mismatch(query(), a, o);
        }
        (art, disagreed)
    }

    /// Answer one point query from the configured source: the artifact
    /// walk `art` without an oracle, the closed form `ora` off the oracle
    /// under [`AnswerSource::Oracle`], or both through
    /// [`Self::cross_check`] under [`AnswerSource::CrossCheck`], counted
    /// as one check. The one place that branches on the source per query.
    fn answer<T>(
        &self,
        query: impl FnOnce() -> String,
        art: impl FnOnce() -> Result<T, ServeError>,
        ora: impl FnOnce(&FactorOracle) -> Result<T, ServeError>,
        same: impl FnOnce(&T, &T) -> bool,
        render: impl Fn(&T, Option<&T>) -> String,
    ) -> Result<T, ServeError> {
        // the oracle is loaded for every source but the artifact walk
        let Some(oracle) = &self.oracle else {
            return art();
        };
        if !self.source.checks() {
            return ora(oracle);
        }
        self.checked.fetch_add(1, Ordering::Relaxed);
        self.cross_check(query, art(), ora(oracle), same, render).0
    }

    /// Certify one returned path `from → to` edge by edge; returns how
    /// many of its edges failed. A traversal answer is a *witness*, so
    /// each claimed edge is re-read through the artifact (`has_edge`) and
    /// asked of the closed-form oracle, and goes through the one
    /// cross-check step, under which an edge fails when either side
    /// denies it — and a remote-fetch failure while re-reading is no
    /// verdict. Counts one check. Without an oracle only the artifact is
    /// asked.
    pub fn certify_path(&self, from: u64, to: u64, path: &[u64]) -> u64 {
        self.checked.fetch_add(1, Ordering::Relaxed);
        let oracle = self.oracle.as_ref();
        let mut failed = 0;
        for (&u, &v) in path.iter().zip(path.iter().skip(1)) {
            let (_, bad) = self.cross_check(
                || format!("path {from} {to}: edge {u} {v}"),
                self.has_edge_artifact(u, v),
                oracle.map_or(Ok(true), |o| o.has_edge(u, v)),
                |&a, &o| a && o,
                |b, _| b.to_string(),
            );
            failed += u64::from(bad);
        }
        failed
    }

    /// The sorted adjacency row of `v` (self loop included, matching
    /// `KronProduct::neighbors`): zero-copy from the mapping in artifact
    /// mode (an owned copy for a non-resident row), materialized from the
    /// factor rows in oracle mode. A cross-check compares the artifact row
    /// in place — the agree path (every query on a healthy run) does not
    /// copy it — and logs a bounded digest of each row (hub rows can be
    /// huge): its length and its entry at the first position the two
    /// differ.
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] for `v ≥ n_C`; in a cluster,
    /// [`ServeError::Remote`] when the owning peer cannot produce the row.
    pub fn neighbors(&self, v: u64) -> Result<Cow<'_, [u64]>, ServeError> {
        self.answer(
            || format!("neighbors {v}"),
            || self.row(v),
            |oracle| Ok(Cow::Owned(oracle.neighbors(v)?)),
            |a, o| a == o,
            |r, other| {
                let Some(o) = other else {
                    return format!("[{} entries]", r.len());
                };
                let at = r.iter().zip(o.iter()).position(|(x, y)| x != y);
                let at = at.unwrap_or(r.len().min(o.len()));
                let x = r.get(at).map_or("<end>".into(), u64::to_string);
                format!("[{} entries] ..[{at}] = {x}", r.len())
            },
        )
    }

    fn degree_artifact(&self, v: u64) -> Result<u64, ServeError> {
        let row = self.row(v)?;
        Ok(row.len() as u64 - u64::from(slice::contains_sorted(&row, v)))
    }

    /// Degree of `v`, self loop excluded (`d_C = (C − I∘C)·1`, §III-A).
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] for `v ≥ n_C`; in a cluster,
    /// [`ServeError::Remote`] when the owning peer cannot produce the row.
    pub fn degree(&self, v: u64) -> Result<u64, ServeError> {
        self.answer(
            || format!("degree {v}"),
            || self.degree_artifact(v),
            |oracle| oracle.degree(v),
            u64::eq,
            |d, _| d.to_string(),
        )
    }

    fn has_edge_artifact(&self, u: u64, v: u64) -> Result<bool, ServeError> {
        Ok(slice::contains_sorted(&self.pair_row(u, v)?, v))
    }

    /// Whether `{u, v}` is an adjacency entry of the product (loops
    /// included: `has_edge(v, v)` is `true` iff `v` has a self loop).
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] for either id ≥ `n_C`; in a
    /// cluster, [`ServeError::Remote`] when `u`'s row is not fetchable.
    pub fn has_edge(&self, u: u64, v: u64) -> Result<bool, ServeError> {
        self.answer(
            || format!("has_edge {u} {v}"),
            || self.has_edge_artifact(u, v),
            |oracle| oracle.has_edge(u, v),
            bool::eq,
            |b, _| b.to_string(),
        )
    }

    /// The error for a row that names a vertex no shard owns: in a
    /// checksum-verified set every column id resolves (the shards tile
    /// `0..n_C`), so this means tampering.
    fn stray_neighbor(v: u64, u: u64) -> ServeError {
        ServeError::Corrupt(format!("row {v} lists neighbor {u} outside every shard"))
    }

    fn vertex_triangles_artifact(&self, v: u64) -> Result<(u64, u64), ServeError> {
        let row_v = self.row(v)?;
        // `t(v) = ½·Σ_{u ∈ N(v), u≠v} Δ[{v,u}]` (the row-sum identity below
        // Def. 6; the self loop spawns no wedges, Rem. 3). Resident
        // neighbors are intersected here; in a cluster the rest are
        // intersected where their rows live — `row(v)` travels to a replica
        // of theirs in `/wedges` exchanges grouped by replica set, and the
        // same per-neighbor terms come back, so no neighbor row crosses the
        // wire. On a tampered artifact `Σ Δ` can be odd; the floor division
        // then gives a deterministic wrong count for cross-check to flag.
        let (mut twice_t, mut checks) = (0u64, 0u64);
        let mut far: FarGroups<'_> = BTreeMap::new();
        for &u in row_v.iter().filter(|&&u| u != v) {
            let shard = self
                .set
                .route(u)
                .ok_or_else(|| Self::stray_neighbor(v, u))?;
            if let Some((remote, replicas)) = self.far(shard) {
                let (_, asked) = far.entry(replicas).or_insert((remote, Vec::new()));
                asked.push(u);
                continue;
            }
            let (delta, c) = self.neighbour_row(shard, u, |row_u| {
                slice::intersect_excluding(&row_v, row_u, v, u)
            })?;
            twice_t += delta;
            checks += c;
        }
        for (replicas, (remote, asked)) in &far {
            let (delta, c) = self.wedges(remote, replicas, v, &row_v, asked)?;
            twice_t += delta;
            checks += c;
        }
        Ok((twice_t / 2, checks))
    }

    /// `Σ_u (Δ[{v,u}], wedge checks)` over `asked`, the ascending
    /// neighbors of `v` whose rows live on `replicas`: `/wedges` exchanges
    /// until every one is answered. A peer answers at least the first
    /// neighbor of each, so a long list takes more than one only when its
    /// merges outgrow the bound a peer's event thread answers itself.
    fn wedges(
        &self,
        remote: &RemoteShards,
        replicas: &[usize],
        v: u64,
        row_v: &[u64],
        asked: &[u64],
    ) -> Result<(u64, u64), ServeError> {
        let (mut delta, mut checks) = (0, 0);
        self.ask_until_answered(asked, |rest| {
            let (answered, d, c) = remote.wedges(replicas, v, row_v, rest)?;
            delta += d;
            checks += c;
            Ok(answered)
        })?;
        Ok((delta, checks))
    }

    /// Triangle participation `t_C(v)` (Def. 5). Returns
    /// `(t, wedge_checks)`; the closed-form oracle performs no wedge
    /// checks, so its `checks` is always 0.
    ///
    /// Artifact path: `v`'s row is intersected with each neighbor's row;
    /// neighbors may live in any resident shard, so each row fetch routes
    /// independently (through the hot-row LRU when one is configured). In
    /// a cluster, neighbors a peer owns are intersected on that peer:
    /// `POST /wedges` (one per replica set, unless a peer answers only a
    /// prefix) carries `row(v)` there and the per-neighbor counts and
    /// checks back, so `(t, checks)` are the single node's to the bit.
    /// Oracle path: `O(1)` from factor terms.
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] for `v ≥ n_C`;
    /// [`ServeError::Corrupt`] when a mapped row lists a neighbor outside
    /// every shard; in a cluster, [`ServeError::Remote`] when a needed
    /// row's owning peer cannot produce it.
    pub fn vertex_triangles_with_checks(&self, v: u64) -> Result<(u64, u64), ServeError> {
        // compare counts only — wedge checks are accounting, not answers
        self.answer(
            || format!("tri_vertex {v}"),
            || self.vertex_triangles_artifact(v),
            |oracle| Ok((oracle.vertex_triangles(v)?, 0)),
            |a, o| a.0 == o.0,
            |(t, _), _| t.to_string(),
        )
    }

    /// Triangle participation `t_C(v)` (Def. 5).
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::vertex_triangles_with_checks`].
    pub fn vertex_triangles(&self, v: u64) -> Result<u64, ServeError> {
        Ok(self.vertex_triangles_with_checks(v)?.0)
    }

    fn edge_triangles_artifact(&self, u: u64, v: u64) -> Result<Option<(u64, u64)>, ServeError> {
        let row_u = self.pair_row(u, v)?;
        if !slice::contains_sorted(&row_u, v) {
            return Ok(None);
        }
        if u == v {
            return Ok(Some((0, 0)));
        }
        let shard = self
            .set
            .route(v)
            .ok_or_else(|| Self::stray_neighbor(u, v))?;
        if let Some((remote, replicas)) = self.far(shard) {
            // `v`'s row lives on a peer: ship `row(u)` there instead
            return self.wedges(remote, replicas, u, &row_u, &[v]).map(Some);
        }
        self.neighbour_row(shard, v, |row_v| {
            Some(slice::edge_triangles_rows(&row_u, row_v, u, v))
        })
    }

    /// Triangle participation `Δ_C[{u, v}]` of the edge `{u, v}` (Def. 6)
    /// with wedge-check accounting: `Ok(None)` if `{u, v}` is not an
    /// adjacency entry, `Ok(Some((0, 0)))` for a self loop (the Δ diagonal
    /// is zero), otherwise the sorted intersection of the two rows (or its
    /// closed-form equal in oracle mode, with 0 checks). In a cluster,
    /// when `v`'s row lives on a peer, `u`'s row travels there in one
    /// `POST /wedges` and the intersection is computed where `v`'s is.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServeEngine::vertex_triangles_with_checks`],
    /// over the two endpoint rows.
    pub fn edge_triangles_with_checks(
        &self,
        u: u64,
        v: u64,
    ) -> Result<Option<(u64, u64)>, ServeError> {
        self.answer(
            || format!("tri_edge {u} {v}"),
            || self.edge_triangles_artifact(u, v),
            |oracle| Ok(oracle.edge_triangles(u, v)?.map(|d| (d, 0))),
            |a, o| a.map(|(d, _)| d) == o.map(|(d, _)| d),
            |e, _| e.map_or("not-an-edge".into(), |(d, _)| d.to_string()),
        )
    }

    /// Triangle participation `Δ_C[{u, v}]`, or `None` if `{u, v}` is not
    /// an edge — same contract as `KronProduct::edge_triangles`.
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::edge_triangles_with_checks`].
    pub fn edge_triangles(&self, u: u64, v: u64) -> Result<Option<u64>, ServeError> {
        Ok(self.edge_triangles_with_checks(u, v)?.map(|(d, _)| d))
    }
}

/// Far vertices grouped by the replica set holding their rows, with the
/// peer table to ask it through: one exchange (or a few, for a prefix
/// answer) per group.
type FarGroups<'e> = BTreeMap<&'e [usize], (&'e RemoteShards, Vec<u64>)>;

/// One traversal level's rows (`/path`, `/khop`): the rows peers hold
/// arrive first, in one `POST /rows` per replica set and 4096 vertices
/// (`INLINE_ROW_CAP`) — a body a peer's event thread decodes — and
/// another for what a prefix answer left over; resident rows are read in
/// place as the walk reaches them. Neither touches the LRU — a BFS level
/// reads each row once. Every row counts in its shard's `shard_fetches`,
/// every exchange once in `remote_fetches`. Errors:
/// [`ServeError::VertexOutOfRange`] for a frontier vertex no shard owns,
/// [`ServeError::Remote`] when no replica of a set answers.
impl LevelRows for ServeEngine {
    type Error = ServeError;

    fn num_vertices(&self) -> u64 {
        self.set.num_vertices()
    }

    fn bad_column(&self, v: u64, u: u64) -> ServeError {
        Self::stray_neighbor(v, u)
    }

    fn each_row<F>(&self, frontier: &[u64], mut row: F) -> Result<(), ServeError>
    where
        F: FnMut(u64, &[u64]) -> Result<(), ServeError>,
    {
        let mut far: FarGroups<'_> = BTreeMap::new();
        for &v in frontier {
            let shard = self.set.route(v).ok_or_else(|| self.out_of_range(v))?;
            if let Some((remote, replicas)) = self.far(shard) {
                self.routing.record_fetch(shard);
                let (_, asked) = far.entry(replicas).or_insert((remote, Vec::new()));
                asked.push(v);
            }
        }
        // far vertex → (answer, row within it)
        let (mut answers, mut far_rows) = (Vec::new(), HashMap::<_, _, SplitMix>::default());
        for (replicas, (remote, asked)) in &far {
            for asked in asked.chunks(INLINE_ROW_CAP) {
                self.ask_until_answered(asked, |rest| {
                    let answer = remote.rows(replicas, rest)?;
                    let answered = answer.spans.len();
                    let at = answers.len();
                    let rows = rest[..answered].iter().enumerate();
                    far_rows.extend(rows.map(|(i, &v)| (v, (at, i))));
                    answers.push(answer);
                    Ok(answered)
                })?;
            }
        }
        for &v in frontier {
            match far_rows.get(&v) {
                Some(&(answer, i)) => row(v, &answers[answer].decode(i))?,
                None => row(v, &self.row(v)?)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron::KronProduct;
    use kron_graph::Graph;
    use kron_stream::{stream_product, OutputFormat, StreamConfig};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kron_serve_engine_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn product() -> KronProduct {
        let a = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)]);
        let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0)]);
        KronProduct::new(a, b)
    }

    fn engine_for(dir: &PathBuf, c: &KronProduct, shards: usize) -> ServeEngine {
        let mut cfg = StreamConfig::new(dir, OutputFormat::Csr);
        cfg.shards = shards;
        stream_product(c, &cfg).unwrap();
        ServeEngine::open_verified(dir).unwrap()
    }

    #[test]
    fn every_point_query_matches_the_closed_form() {
        let dir = tmpdir("closed_form");
        let c = product();
        let e = engine_for(&dir, &c, 3);
        for v in 0..c.num_vertices() {
            assert_eq!(e.degree(v).unwrap(), c.degree(v), "degree {v}");
            assert_eq!(e.neighbors(v).unwrap(), c.neighbors(v).as_slice());
            assert_eq!(
                e.vertex_triangles(v).unwrap(),
                c.vertex_triangles(v),
                "t_C({v})"
            );
            for q in 0..c.num_vertices() {
                assert_eq!(e.has_edge(v, q).unwrap(), c.has_edge(v, q));
                assert_eq!(
                    e.edge_triangles(v, q).unwrap(),
                    c.edge_triangles(v, q),
                    "Δ_C({v},{q})"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_answer_source_agrees_on_every_query() {
        let dir = tmpdir("sources");
        let c = product();
        {
            let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
            cfg.shards = 3;
            stream_product(&c, &cfg).unwrap();
        }
        let engines: Vec<ServeEngine> = [
            AnswerSource::Artifact,
            AnswerSource::Oracle,
            AnswerSource::CrossCheck,
        ]
        .iter()
        .map(|&source| {
            ServeEngine::open_with(
                &dir,
                &OpenOptions {
                    source,
                    ..OpenOptions::default()
                },
            )
            .unwrap()
        })
        .collect();
        for e in &engines {
            for v in 0..c.num_vertices() {
                assert_eq!(e.degree(v).unwrap(), c.degree(v), "{:?}", e.source());
                assert_eq!(e.neighbors(v).unwrap(), c.neighbors(v).as_slice());
                assert_eq!(e.vertex_triangles(v).unwrap(), c.vertex_triangles(v));
                for q in 0..c.num_vertices() {
                    assert_eq!(e.has_edge(v, q).unwrap(), c.has_edge(v, q));
                    assert_eq!(e.edge_triangles(v, q).unwrap(), c.edge_triangles(v, q));
                }
            }
            assert_eq!(e.mismatch_count(), 0, "{:?}", e.source());
        }
        // oracle mode never touched a shard; artifact mode never cached
        let oracle_engine = &engines[1];
        assert_eq!(oracle_engine.routing().total_fetches(), 0);
        assert!(engines[0].oracle().is_none());
        assert!(oracle_engine.oracle().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn row_cache_changes_no_answers_and_counts_hits() {
        let dir = tmpdir("cache");
        let c = product();
        {
            let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
            cfg.shards = 3;
            stream_product(&c, &cfg).unwrap();
        }
        let e = ServeEngine::open_with(
            &dir,
            &OpenOptions {
                row_cache_bytes: 64 * 1024,
                ..OpenOptions::default()
            },
        )
        .unwrap();
        for _ in 0..3 {
            for v in 0..c.num_vertices() {
                assert_eq!(e.vertex_triangles(v).unwrap(), c.vertex_triangles(v));
                assert_eq!(
                    e.edge_triangles(v, (v + 1) % c.num_vertices()).unwrap(),
                    c.edge_triangles(v, (v + 1) % c.num_vertices())
                );
            }
        }
        let rep = e.routing();
        assert!(rep.cache_hits > 0, "repeat load must hit the cache: {rep}");
        assert!(rep.cache_misses > 0);
        assert!(rep.total_fetches() > 0);
        assert!(
            rep.cache_bytes > 0 && rep.cache_bytes <= 64 * 1024,
            "resident bytes must be counted and bounded: {rep}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_vertices_error_cleanly() {
        let dir = tmpdir("oob");
        let c = product();
        let e = engine_for(&dir, &c, 2);
        let n = e.num_vertices();
        for bad in [n, n + 7, u64::MAX] {
            assert!(matches!(
                e.degree(bad),
                Err(ServeError::VertexOutOfRange { vertex, .. }) if vertex == bad
            ));
            assert!(e.neighbors(bad).is_err());
            assert!(e.vertex_triangles(bad).is_err());
            assert!(e.has_edge(0, bad).is_err());
            assert!(e.has_edge(bad, 0).is_err());
            assert!(e.edge_triangles(0, bad).is_err());
        }
        let msg = e.degree(n).unwrap_err().to_string();
        assert!(msg.contains(&n.to_string()), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A pair query is refused for an id outside the product before any
    /// row is read: a node whose peer is down answers `has_edge <far u>
    /// <n_C>` as a single node does, not with a remote failure. With both
    /// ids out of range it names `u`.
    #[test]
    fn pair_queries_check_both_ids_before_reading_a_far_row() {
        let dir = tmpdir("pair_range");
        let c = product();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 2;
        stream_product(&c, &cfg).unwrap();
        let node = ServeEngine::open_with(
            &dir,
            &OpenOptions {
                shard_subset: Some(0..1),
                // nothing listens on port 1: every far read fails
                peers: vec![PeerSpec::parse("1..2=127.0.0.1:1").unwrap()],
                peer_timeout: Duration::from_millis(200),
                ..OpenOptions::default()
            },
        )
        .unwrap();
        fn refused<T: std::fmt::Debug>(r: Result<T, ServeError>) -> u64 {
            match r {
                Err(ServeError::VertexOutOfRange { vertex, .. }) => vertex,
                other => panic!("not refused as out of range: {other:?}"),
            }
        }
        let n = node.num_vertices();
        let far = node.shard_set().subset_vertices().end;
        assert_eq!(refused(node.has_edge(far, n)), n);
        assert_eq!(refused(node.edge_triangles(far, n)), n);
        assert_eq!(refused(node.has_edge(n + 1, n)), n + 1);
        assert_eq!(refused(node.edge_triangles(n + 1, n)), n + 1);
        // the far row itself is still a remote failure
        let err = node.has_edge(far, 0).unwrap_err();
        assert!(matches!(err, ServeError::Remote(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cross_check_out_of_range_agrees_and_is_not_a_mismatch() {
        let dir = tmpdir("oob_cross_check");
        let c = product();
        {
            let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
            cfg.shards = 2;
            stream_product(&c, &cfg).unwrap();
        }
        let e = ServeEngine::open_with(
            &dir,
            &OpenOptions {
                source: AnswerSource::CrossCheck,
                ..OpenOptions::default()
            },
        )
        .unwrap();
        let n = e.num_vertices();
        assert!(e.degree(n).is_err());
        assert!(e.vertex_triangles(u64::MAX).is_err());
        assert!(e.edge_triangles(0, n).is_err());
        assert_eq!(
            e.mismatch_count(),
            0,
            "both sources erring is agreement, not a mismatch"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn self_loops_follow_paper_conventions() {
        let dir = tmpdir("loops");
        let c = product();
        let e = engine_for(&dir, &c, 2);
        let looped: Vec<u64> = (0..c.num_vertices())
            .filter(|&v| c.has_self_loop(v))
            .collect();
        assert!(!looped.is_empty(), "test product must have loops");
        for v in looped {
            assert!(e.has_edge(v, v).unwrap());
            // loop excluded from degree, Δ diagonal zero
            assert_eq!(e.degree(v).unwrap(), c.degree(v));
            assert_eq!(e.edge_triangles(v, v).unwrap(), Some(0));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn answer_source_parse_roundtrip() {
        for s in [
            AnswerSource::Artifact,
            AnswerSource::Oracle,
            AnswerSource::CrossCheck,
        ] {
            assert_eq!(AnswerSource::parse(&s.to_string()).unwrap(), s);
        }
        assert!(AnswerSource::parse("mmap").is_err());
        // one spelling per source: no sampling rate, no unhyphenated alias
        let alias = "cross-check".replace('-', "");
        for n in [0, 1, 4] {
            for s in [
                format!("cross-check:{n}"),
                alias.clone(),
                format!("{alias}:{n}"),
            ] {
                let err = AnswerSource::parse(&s).unwrap_err();
                assert_eq!(
                    err,
                    format!(
                        "unknown answer source {s:?} (expected artifact, oracle, or cross-check)"
                    )
                );
            }
        }
    }

    #[test]
    fn tampered_artifact_errors_at_open_not_at_query() {
        let dir = tmpdir("tamper");
        let c = product();
        {
            let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
            cfg.shards = 2;
            stream_product(&c, &cfg).unwrap();
        }
        let m = kron_stream::load_manifest(&dir, 0).unwrap();
        let path = dir.join(m.file.as_deref().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let rows = (m.vertices.end - m.vertices.start) as usize;
        bytes[32 + 8 * (rows + 1)] ^= 0x04; // first column word
        std::fs::write(&path, &bytes).unwrap();
        let err = ServeEngine::open_verified(&dir).unwrap_err();
        assert!(matches!(err, ServeError::Open(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unverified_open_of_tampered_file_errors_instead_of_garbage() {
        // Structural open skips content hashing; a column id pointing
        // outside every shard must still surface as an error on query,
        // never as a silently wrong count or a panic.
        let dir = tmpdir("tamper_unverified");
        let c = product();
        {
            let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
            cfg.shards = 2;
            stream_product(&c, &cfg).unwrap();
        }
        let m = kron_stream::load_manifest(&dir, 0).unwrap();
        let path = dir.join(m.file.as_deref().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let rows = (m.vertices.end - m.vertices.start) as usize;
        let col0 = 32 + 8 * (rows + 1);
        bytes[col0..col0 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let e = ServeEngine::open(&dir).unwrap();
        // the first non-empty row of shard 0 now lists an impossible neighbor
        let victim = (m.vertices.start..m.vertices.end)
            .find(|&v| !e.neighbors(v).unwrap().is_empty())
            .unwrap();
        let err = e.vertex_triangles(victim).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "{err}");
        // the traversals read the row through `LevelRows` and refuse it too
        let finder = crate::PathFinder::new(&e);
        let other = (victim + 1) % c.num_vertices();
        for err in [
            finder.khop(victim, 1).err().unwrap(),
            finder.shortest_path(victim, other, None).err().unwrap(),
        ] {
            assert_eq!(
                err.to_string(),
                format!(
                    "corrupt artifact: row {victim} lists neighbor {} outside every shard",
                    u64::MAX
                )
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

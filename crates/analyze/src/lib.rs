//! Whole-graph analytics kernels over sharded on-disk CSR artifacts.
//!
//! The serving tier (`kron-serve`) answers *point* queries — one row, one
//! degree, one vertex's triangles — against a [`kron_stream::ShardSet`]'s
//! memory-mapped shards. This crate runs **whole-graph passes** over the
//! same artifacts:
//!
//! - [`Kernel::Bfs`] — direction-optimizing BFS / k-hop (push/pull with a
//!   frontier bitmap),
//! - [`Kernel::Cc`] — connected components by min-label propagation,
//! - [`Kernel::Pagerank`] — power iteration to an L1 tolerance, reporting
//!   the top-k vertices and the final residual,
//! - [`Kernel::TriCensus`] — triangle count *the hard way*: the
//!   degree-ordered forward algorithm over the stored rows, which meets
//!   every triangle once and yields `Δ(e)` at every edge and `t(v)` at
//!   every vertex, alongside an exact degree histogram.
//!
//! Kernels take their rows through two seams. Whole-graph scans —
//! CC, PageRank, the census and BFS pull rounds — run on [`scan_rows`]:
//! resident rows in shard order, chunk-parallel across the shard plan
//! through the rayon shim, merged in plan order. BFS push rounds read the
//! rows of a sorted frontier through [`LevelRows`], the trait the serving
//! tier's `/path` and `/khop` levels read theirs through too. Every
//! kernel emits a deterministic JSON result document, byte-identical
//! across thread counts, so a CLI run and a server job over the same
//! artifact can be compared verbatim.
//!
//! Where the paper provides closed forms the result carries **validation
//! fields**, and the tri-census checks them element by element: every
//! stored entry is an entry of the product in its place in the ascending
//! row (no strays, duplicates or disorder), every `Δ(u, v)` equals
//! `KronProduct::edge_triangles` (Thm. 2), every `t(v)` equals
//! `KronProduct::vertex_triangles` (Thm. 1) — each check listing its
//! first disagreements — and then the totals: the degree histogram
//! against the factor closed forms
//! (`kron::distributions::degree_histogram`), the adjacency entry total
//! against `nnz(A)·nnz(B)`, the edge count, and the triangle
//! participation total against
//! `KronProduct::total_triangle_participation()`. A mismatch is
//! [`AnalyzeError::Validation`] — same contract as the serving tier's
//! cross-check: the artifact is corrupt or stale, and the caller must
//! exit nonzero / fail the job.
//!
//! Kernels cancel cooperatively: every row loop polls a caller-owned stop
//! flag and bails with [`AnalyzeError::Cancelled`], which is how both
//! SIGTERM in the CLI and `DELETE /jobs/<id>` on the server interrupt a
//! running pass without tearing anything down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfs;
mod cc;
mod census;
mod pagerank;

use kron_stream::json::Json;
use kron_stream::ShardSet;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// The whole-graph kernels `kron analyze` and the server job API run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Direction-optimizing breadth-first search / k-hop.
    Bfs,
    /// Connected components by min-label propagation.
    Cc,
    /// PageRank power iteration to tolerance.
    Pagerank,
    /// Triangle + degree census by the degree-ordered forward algorithm.
    TriCensus,
}

impl Kernel {
    /// Parse a kernel name as spelled on the CLI and the job wire:
    /// `bfs`, `cc`, `pagerank`, or `tri-census`.
    ///
    /// # Errors
    ///
    /// A message listing the valid names.
    pub fn parse(name: &str) -> Result<Kernel, String> {
        match name {
            "bfs" => Ok(Kernel::Bfs),
            "cc" => Ok(Kernel::Cc),
            "pagerank" => Ok(Kernel::Pagerank),
            "tri-census" => Ok(Kernel::TriCensus),
            other => Err(format!(
                "unknown kernel {other:?} (expected bfs|cc|pagerank|tri-census)"
            )),
        }
    }

    /// The wire spelling, the inverse of [`Kernel::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Bfs => "bfs",
            Kernel::Cc => "cc",
            Kernel::Pagerank => "pagerank",
            Kernel::TriCensus => "tri-census",
        }
    }
}

/// A fully-specified kernel invocation. The defaults here are normative:
/// the CLI and the server job API both start from [`KernelSpec::new`], so
/// an option left unspecified means the same thing on both surfaces and
/// the result documents stay byte-comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Which kernel to run.
    pub kernel: Kernel,
    /// BFS source vertex (ignored by the other kernels).
    pub source: u64,
    /// BFS hop limit: explore levels `1..=depth` only. `None` = exhaust.
    pub depth: Option<u64>,
    /// PageRank L1 convergence tolerance.
    pub tol: f64,
    /// PageRank iteration cap.
    pub max_iters: u64,
    /// PageRank: how many top-ranked vertices to report.
    pub top_k: usize,
    /// Whether tri-census checks its recount against the closed forms —
    /// every stored entry, `Δ` at every edge, `t` at every vertex, then
    /// the totals (mismatch ⇒ [`AnalyzeError::Validation`]).
    pub validate: bool,
}

impl KernelSpec {
    /// The normative defaults for `kernel`.
    pub fn new(kernel: Kernel) -> KernelSpec {
        KernelSpec {
            kernel,
            source: 0,
            depth: None,
            tol: 1e-8,
            max_iters: 100,
            top_k: 10,
            validate: true,
        }
    }

    /// Parse a job-submission document: `{"kernel": "..."}` plus any of
    /// the optional members `source`, `depth`, `tol`, `iters`, `top`,
    /// `validate`. Unknown members are rejected so a typo'd option fails
    /// the submission instead of silently running with a default.
    ///
    /// # Errors
    ///
    /// A message naming the missing/unparsable/unknown member.
    pub fn from_json(doc: &Json) -> Result<KernelSpec, String> {
        let Json::Obj(pairs) = doc else {
            return Err("job spec must be a JSON object".into());
        };
        let kernel = Kernel::parse(
            doc.req("kernel")?
                .as_str()
                .ok_or("\"kernel\" must be a string")?,
        )?;
        let mut spec = KernelSpec::new(kernel);
        for (key, value) in pairs {
            match key.as_str() {
                "kernel" => {}
                "source" => spec.source = value.as_u64().ok_or("\"source\" must be a vertex id")?,
                "depth" => {
                    spec.depth = Some(value.as_u64().ok_or("\"depth\" must be a hop count")?)
                }
                "tol" => spec.tol = value.as_f64().ok_or("\"tol\" must be a number")?,
                "iters" => spec.max_iters = value.as_u64().ok_or("\"iters\" must be an integer")?,
                "top" => spec.top_k = value.as_usize().ok_or("\"top\" must be an integer")?,
                "validate" => {
                    spec.validate = value.as_bool().ok_or("\"validate\" must be a bool")?
                }
                other => return Err(format!("unknown job spec member {other:?}")),
            }
        }
        Ok(spec)
    }
}

/// Why a kernel did not return a clean result document.
#[derive(Debug)]
pub enum AnalyzeError {
    /// The run directory or spec is unusable (incomplete shard subset,
    /// out-of-range source vertex, …).
    Open(String),
    /// The stop flag was raised; the pass ended early with no verdict.
    Cancelled,
    /// The artifact is structurally inconsistent (a row names a vertex
    /// outside every shard, a non-resident row was needed, …).
    Corrupt(String),
    /// The kernel finished but its recount contradicts the closed forms.
    /// The boxed document is the full result — validation fields
    /// included — so callers can surface *what* mismatched, down to the
    /// first disagreeing vertices and edges.
    Validation(Box<Json>),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Open(msg) => write!(f, "analyze: {msg}"),
            AnalyzeError::Cancelled => write!(f, "analyze: cancelled by stop flag"),
            AnalyzeError::Corrupt(msg) => write!(f, "analyze: corrupt artifact: {msg}"),
            AnalyzeError::Validation(_) => write!(
                f,
                "analyze: result contradicts the closed forms \
                 (artifact corrupt or stale)"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Run one kernel over a fully-resident shard set and return its result
/// document. The document is deterministic — independent of thread count
/// and chunking — so the same artifact and spec always produce the same
/// bytes, which is what lets the CLI and the server job API be compared
/// verbatim.
///
/// # Errors
///
/// - [`AnalyzeError::Open`] if `set` is a cluster subset (whole-graph
///   kernels need every row resident), the spec is out of range, or
///   tri-census meets more than `u32::MAX` vertices;
/// - [`AnalyzeError::Cancelled`] as soon as `stop` is observed `true`;
/// - [`AnalyzeError::Corrupt`] for structural artifact damage;
/// - [`AnalyzeError::Validation`] when tri-census disagrees with the
///   closed forms (the boxed result document names the mismatch).
pub fn run_kernel(
    set: &ShardSet,
    spec: &KernelSpec,
    stop: &AtomicBool,
) -> Result<Json, AnalyzeError> {
    if !set.is_complete() {
        return Err(AnalyzeError::Open(format!(
            "whole-graph kernels need every shard resident; this set claims \
             shards {:?} of {} (open the full run directory)",
            set.subset(),
            set.num_shards()
        )));
    }
    match spec.kernel {
        Kernel::Bfs => bfs::run(set, spec, stop),
        Kernel::Cc => cc::run(set, stop),
        Kernel::Pagerank => pagerank::run(set, spec, stop),
        Kernel::TriCensus => {
            let product = spec.validate.then(|| &**set.product());
            let (doc, ok) = census::run(set, product, stop)?;
            if ok {
                Ok(doc)
            } else {
                Err(AnalyzeError::Validation(Box::new(doc)))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shared kernel plumbing (crate-private).
// ---------------------------------------------------------------------

/// Poll the cooperative stop flag.
#[inline]
pub(crate) fn check_stop(stop: &AtomicBool) -> Result<(), AnalyzeError> {
    if stop.load(Ordering::Relaxed) {
        Err(AnalyzeError::Cancelled)
    } else {
        Ok(())
    }
}

/// `n_C` as a dense-array length.
pub(crate) fn dense_len(set: &ShardSet) -> Result<usize, AnalyzeError> {
    usize::try_from(set.num_vertices()).map_err(|_| {
        AnalyzeError::Open(format!(
            "{} vertices do not fit an in-memory kernel on this platform",
            set.num_vertices()
        ))
    })
}

/// The parallel work plan: contiguous vertex sub-ranges of resident
/// shards, in ascending vertex order, split so every thread gets several
/// pieces. Kernel results never depend on the split (each piece is
/// merged in plan order), only wall-clock does.
pub(crate) fn row_chunks(set: &ShardSet) -> Vec<(usize, std::ops::Range<u64>)> {
    let pieces = rayon::current_num_threads().max(1) * 4;
    let total: u64 = set
        .subset()
        .filter_map(|s| set.shard_vertices(s))
        .map(|r| r.end - r.start)
        .sum();
    let target = (total / pieces as u64).max(1);
    let mut chunks = Vec::new();
    for shard in set.subset() {
        let range = set
            .shard_vertices(shard)
            .expect("resident shard has a range");
        let mut lo = range.start;
        while lo < range.end {
            let hi = range.end.min(lo + target);
            chunks.push((shard, lo..hi));
            lo = hi;
        }
    }
    chunks
}

/// A row names a column outside the product: on a checksummed artifact
/// that can only mean corruption.
pub(crate) fn bad_column(v: u64, u: u64, n: u64) -> AnalyzeError {
    AnalyzeError::Corrupt(format!(
        "row {v} names vertex {u}, but the product has only {n}"
    ))
}

/// One row as [`scan_rows`] (and [`LevelRows::each_neighbour`]) shows it
/// to an algorithm: the stored columns (`Deref`, unchecked) plus
/// [`Row::cols`], the checked read every kernel that indexes a dense
/// per-vertex array by column goes through. The check rides the kernel's
/// own loop — no second pass over the row, and a loop that exits early
/// never pays for the tail.
pub struct Row<'a> {
    cols: &'a [u64],
    n: u64,
    stray: std::cell::Cell<Option<u64>>,
}

impl<'a> Row<'a> {
    pub(crate) fn new(cols: &'a [u64], n: u64) -> Row<'a> {
        Row {
            cols,
            n,
            stray: std::cell::Cell::new(None),
        }
    }

    /// The columns in stored order, each a vertex of the product. A
    /// column `≥ n_C` ends the iteration and is remembered: whoever built
    /// this row fails with it once the algorithm's body returns, so what
    /// the body computed from the truncated read is never used.
    pub fn cols(&self) -> impl Iterator<Item = u64> + '_ {
        self.cols.iter().map_while(|&u| {
            if u >= self.n {
                self.stray.set(Some(u));
                return None;
            }
            Some(u)
        })
    }

    /// The column that cut a [`Row::cols`] read short, if one did.
    pub(crate) fn stray(&self) -> Option<u64> {
        self.stray.get()
    }
}

impl std::ops::Deref for Row<'_> {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.cols
    }
}

/// The one whole-graph row scan every kernel runs on: visit the resident
/// row of every vertex `v` with `wanted(v)`, chunk-parallel over the
/// shard plan, ascending within a chunk. Each chunk folds its rows into a
/// fresh `T` through `body(&mut acc, v, row)`; the per-chunk accumulators
/// come back **in plan order**, so a kernel that merges them front to
/// back gets the same result for every thread count.
///
/// The driver owns what every kernel needs and none should repeat: the
/// stop flag is polled before every row, a row the routed shard cannot
/// produce is corruption, and so is a column `≥ n_C` met by a body
/// reading through [`Row::cols`].
///
/// # Errors
///
/// [`AnalyzeError::Cancelled`] once `stop` is observed;
/// [`AnalyzeError::Corrupt`] naming the shard and row that is missing
/// (or does not decode), or the row and its out-of-range column; the
/// first error of `body`, in plan order.
pub fn scan_rows<T, W, B>(
    set: &ShardSet,
    stop: &AtomicBool,
    wanted: W,
    body: B,
) -> Result<Vec<T>, AnalyzeError>
where
    T: Default + Send,
    W: Fn(u64) -> bool + Sync,
    B: Fn(&mut T, u64, &Row<'_>) -> Result<(), AnalyzeError> + Sync,
{
    let n = set.num_vertices();
    let parts: Vec<Result<T, AnalyzeError>> = row_chunks(set)
        .into_par_iter()
        .map(|(shard, range)| {
            let reader = &set.local(shard).expect("resident shard").reader;
            let (mut acc, mut buf) = (T::default(), Vec::new());
            for v in range.filter(|&v| wanted(v)) {
                check_stop(stop)?;
                let row = reader.row_into(v, &mut buf).ok_or_else(|| {
                    AnalyzeError::Corrupt(format!("shard {shard} is missing row {v}"))
                })?;
                let row = Row::new(row, n);
                body(&mut acc, v, &row)?;
                if let Some(u) = row.stray() {
                    return Err(bad_column(v, u, n));
                }
            }
            Ok(acc)
        })
        .collect();
    parts.into_iter().collect()
}

/// The one row seam every traversal level reads through: for a sorted
/// frontier, each vertex's row in frontier order, then row order. Whether
/// a row was mapped, decoded or fetched from a peer is the implementor's
/// business; the caller sees neighbours only. Implemented on a complete
/// shard set paired with its stop flag (BFS push rounds) and on the
/// serving tier's engine (`/path` and `/khop`).
pub trait LevelRows {
    /// Why a row could not be read.
    type Error;

    /// `n_C`: a stored column at or past it is corruption.
    fn num_vertices(&self) -> u64;

    /// The error for row `v` naming column `u ≥ n_C`.
    fn bad_column(&self, v: u64, u: u64) -> Self::Error;

    /// Hand `row(v, cols)` every vertex of the ascending `frontier` with
    /// its stored columns, in frontier order, and stop at the first error
    /// a read or `row` returns.
    ///
    /// # Errors
    ///
    /// The implementor's for a row it cannot produce; `row`'s first.
    fn each_row<F>(&self, frontier: &[u64], row: F) -> Result<(), Self::Error>
    where
        F: FnMut(u64, &[u64]) -> Result<(), Self::Error>;

    /// Hand `emit(v, u)` every neighbour `u` of every frontier vertex `v`,
    /// in frontier order, then row order, so callers observe a
    /// deterministic discovery sequence. A column `≥ n_C` ([`Row::cols`])
    /// ends the walk with [`LevelRows::bad_column`].
    ///
    /// # Errors
    ///
    /// As [`LevelRows::each_row`], plus the bad column.
    fn each_neighbour(
        &self,
        frontier: &[u64],
        mut emit: impl FnMut(u64, u64),
    ) -> Result<(), Self::Error> {
        let n = self.num_vertices();
        self.each_row(frontier, |v, cols| {
            let row = Row::new(cols, n);
            row.cols().for_each(|u| emit(v, u));
            row.stray().map_or(Ok(()), |u| Err(self.bad_column(v, u)))
        })
    }
}

/// A plain fixed-size bitmap over vertex ids.
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn test(&self, v: u64) -> bool {
        self.words[(v / 64) as usize] >> (v % 64) & 1 == 1
    }

    /// Set bit `v`; `true` if it was previously clear.
    #[inline]
    pub(crate) fn set(&mut self, v: u64) -> bool {
        let word = &mut self.words[(v / 64) as usize];
        let mask = 1u64 << (v % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clear bit `v`.
    #[inline]
    pub(crate) fn clear(&mut self, v: u64) {
        self.words[(v / 64) as usize] &= !(1u64 << (v % 64));
    }
}

/// Render a histogram as the `[[key, count], …]` JSON array every result
/// document uses (ascending keys — `BTreeMap` order).
pub(crate) fn histogram_json<K: std::fmt::Display, V: std::fmt::Display>(
    h: &std::collections::BTreeMap<K, V>,
) -> Json {
    Json::Arr(
        h.iter()
            .map(|(k, v)| Json::Arr(vec![Json::num(k), Json::num(v)]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_round_trip() {
        for name in ["bfs", "cc", "pagerank", "tri-census"] {
            assert_eq!(Kernel::parse(name).unwrap().name(), name);
        }
        assert!(Kernel::parse("BFS").is_err());
        assert!(Kernel::parse("triangles").is_err());
    }

    #[test]
    fn spec_from_json_applies_defaults_and_rejects_unknown_members() {
        let doc = Json::parse(r#"{"kernel":"pagerank"}"#).unwrap();
        let spec = KernelSpec::from_json(&doc).unwrap();
        assert_eq!(spec, KernelSpec::new(Kernel::Pagerank));

        let doc = Json::parse(r#"{"kernel":"bfs","source":7,"depth":2,"validate":false}"#).unwrap();
        let spec = KernelSpec::from_json(&doc).unwrap();
        assert_eq!(spec.source, 7);
        assert_eq!(spec.depth, Some(2));
        assert!(!spec.validate);

        for bad in [
            r#"{"source":1}"#,
            r#"{"kernel":"bfs","sauce":1}"#,
            r#"{"kernel":"bfs","source":"x"}"#,
            r#"[1,2]"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(KernelSpec::from_json(&doc).is_err(), "{bad}");
        }
    }

    #[test]
    fn bitset_set_reports_freshness() {
        let mut b = BitSet::new(130);
        assert!(!b.test(129));
        assert!(b.set(129));
        assert!(!b.set(129));
        assert!(b.test(129));
        assert!(!b.test(0));
    }
}

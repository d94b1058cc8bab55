//! Opening a completed CSR run directory for in-place querying.
//!
//! [`ShardSet`] is the bridge between generation and serving: it reads
//! `run.json`, the factor copies and each claimed shard's manifest,
//! memory-maps each claimed CSR artifact once, cross-checks each mapped
//! header against its manifest, and then routes product vertices to
//! shards by the plan's contiguous vertex ranges. After a successful
//! open, every resident adjacency row of the product is
//! reachable as a `Cow<[u64]>` — a zero-copy slice borrowed from the
//! mapping for v1 (`csr`) shards, an owned buffer decoded on demand for
//! v2 (`csr2`) shards — without loading the graph. Both formats travel
//! every path above this module identically; a run may even mix them per
//! shard (the state a `kron compact` conversion passes through).
//!
//! Every open first loads the run directory's factor copies through
//! [`crate::load_factors`] and builds the [`ShardPlan`]: the plan, a
//! function of the factors and the shard count alone, is the ownership
//! map. Each claimed shard then passes the one shard check every reader
//! of a run directory makes (`check_shard`), at one of two depths:
//!
//! * [`ShardSet::open`] — structural: JSON parses, the format is CSR, the
//!   factor copies are the ones `run.json` was generated from, and each
//!   claimed manifest's range and closed-form sums are its plan entry's;
//!   every claimed artifact's header (magic, `vertex_lo`, `num_rows`,
//!   `nnz`, offsets monotonicity) agrees with its manifest and file size.
//!   `O(nnz(A) + nnz(B) + shards + Σ num_rows)`.
//! * [`ShardSet::open_verified`] — additionally reads every row once:
//!   each must decode, hold strictly ascending columns and have its
//!   closed-form length, and together they must reproduce the manifest's
//!   order-independent content checksum. `O(nnz)`, done exactly once at
//!   open; queries afterwards trust the mapping.
//!
//! The claimed shards are read shard-parallel on every core, manifest
//! then artifact, and an open fails with its lowest-index bad shard,
//! whatever the worker count.
//!
//! A **subset open** ([`ShardSet::open_with`] with a claimed range) is
//! the multi-node entry point: one node of a cluster claims a contiguous
//! shard range and reads only those manifests and artifacts, yet routes
//! every vertex of the product, because the plan says which shard owns
//! it. Manifests and artifacts of non-claimed shards need not exist on
//! the node at all.

use crate::csr::CsrMap;
use crate::driver::{for_each_shard, load_factors, load_manifest};
use crate::manifest::{OutputFormat, RunSummary, ShardManifest, StreamHash};
use crate::plan::{ShardPlan, ShardSpec};
use crate::StreamError;
use kron::KronProduct;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The ground truth every reader of a run directory checks its shards
/// against: `run.json`, the product rebuilt from the factor copies, and
/// the plan — a function of the factors and the shard count alone.
pub(crate) struct Ground {
    pub(crate) run: RunSummary,
    pub(crate) product: KronProduct,
    pub(crate) plan: ShardPlan,
}

impl Ground {
    /// Load `run.json` and the factor copies ([`load_factors`], the one
    /// loader), check `total_entries` against `nnz(A)·nnz(B)`, and plan
    /// the run's shards.
    pub(crate) fn load(dir: &Path) -> Result<Ground, StreamError> {
        let run = RunSummary::load(dir)?;
        let product = load_factors(dir, &run)?;
        let (got, want) = (run.total_entries, product.nnz());
        if got != want {
            return Err(StreamError::Manifest(format!(
                "run.json: total_entries is {got}, the factors' product has {want}"
            )));
        }
        let plan = ShardPlan::new(&product, run.shards);
        Ok(Ground { run, product, plan })
    }

    /// [`check_shard`] of shard `index` of this run.
    pub(crate) fn check(
        &self,
        dir: &Path,
        index: usize,
        depth: Depth,
    ) -> Result<(ShardManifest, Option<CsrMap>), StreamError> {
        let spec = self.plan.get(index).expect("index < run.shards");
        check_shard(dir, self.run.format, &self.product, spec, depth)
    }
}

/// How far [`check_shard`] reads a shard.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Depth {
    /// The manifest is its plan entry, and the artifact's header is the
    /// manifest's. No row is read.
    Header,
    /// As `Header`, plus every row decodes, is strictly ascending and
    /// has its closed-form length, and the rows reproduce the stream hash.
    Content,
    /// As `Content`, plus every column is the product's.
    Rehash,
}

/// Admit shard `spec.index` of a `format` run at `depth` — the one
/// decision every reader of a run directory makes about a shard: opens,
/// [`crate::verify_shards`], `--resume` and [`crate::compact_run`].
/// Returns the manifest and, for a `csr`/`csr2` shard, its mapping; a
/// `count` shard stops after the manifest check.
pub(crate) fn check_shard(
    dir: &Path,
    format: OutputFormat,
    product: &KronProduct,
    spec: &ShardSpec,
    depth: Depth,
) -> Result<(ShardManifest, Option<CsrMap>), StreamError> {
    let m = load_run_manifest(dir, format, spec.index)?;
    m.matches_stats(&spec.stats)
        .map_err(StreamError::Manifest)?;
    if !m.format.is_csr() {
        return match m.file {
            Some(_) => Err(StreamError::Shard(
                spec.index,
                "count shard names a file".into(),
            )),
            None => Ok((m, None)),
        };
    }
    let reader = admit_shard(dir, &m)?;
    if depth != Depth::Header {
        check_content(&reader, &m, product, depth == Depth::Rehash)?;
    }
    Ok((m, Some(reader)))
}

/// Load shard `index`'s manifest as a member of a `format` run: it must
/// say it is shard `index`, and its format must be admissible in the run.
/// The format rule, stated once: a shard has its run's format, except
/// that a `csr`/`csr2` run may mix `csr` and `csr2` shards (the state a
/// `kron compact` conversion passes through) — nothing else.
fn load_run_manifest(
    dir: &Path,
    format: OutputFormat,
    index: usize,
) -> Result<ShardManifest, StreamError> {
    let m = load_manifest(dir, index)?;
    if m.shard != index {
        return Err(StreamError::Shard(
            index,
            format!("manifest says shard {}", m.shard),
        ));
    }
    if m.format != format && !(m.format.is_csr() && format.is_csr()) {
        return Err(StreamError::Shard(
            index,
            format!(
                "manifest format {} has no place in a {} run (only csr and csr2 shards may mix)",
                m.format.as_str(),
                format.as_str()
            ),
        ));
    }
    Ok(m)
}

/// The admission check of a CSR shard artifact: the manifest names a
/// file, the file maps as a structurally valid shard ([`CsrMap::open`]),
/// its magic is the manifest's `format`, its header (`vertex_lo`,
/// `num_rows`, `nnz`) is the manifest's range and entry count, and its
/// size on disk is the manifest's `file_bytes`. Content (row bytes) is
/// not read here; see [`check_content`].
fn admit_shard(dir: &Path, m: &ShardManifest) -> Result<CsrMap, StreamError> {
    let fail = |msg: String| StreamError::Shard(m.shard, msg);
    let name = m
        .file
        .as_deref()
        .ok_or_else(|| fail(format!("{} shard has no file", m.format.as_str())))?;
    let path = dir.join(name);
    let reader = CsrMap::open(&path).map_err(|e| fail(e.to_string()))?;
    if reader.is_v2() != (m.format == OutputFormat::Csr2) {
        return Err(fail(format!(
            "{name}: artifact magic says {}, manifest says {}",
            if reader.is_v2() { "csr2" } else { "csr" },
            m.format.as_str()
        )));
    }
    if reader.vertex_lo() != m.vertices.start
        || Some(reader.num_rows()) != m.vertices.end.checked_sub(m.vertices.start)
        || u128::from(reader.nnz()) != m.entries
    {
        return Err(fail(format!(
            "{name}: mapped header disagrees with manifest"
        )));
    }
    let len = std::fs::metadata(&path)
        .map_err(|e| fail(format!("{name}: {e}")))?
        .len();
    if len != m.file_bytes {
        return Err(fail(format!(
            "{name}: {len} bytes on disk, manifest file_bytes says {}",
            m.file_bytes
        )));
    }
    Ok(reader)
}

/// Read every row of a shard [`admit_shard`] admitted for `m` once, in
/// vertex order: each must decode, have its closed-form length
/// ([`KronProduct::row_lengths_in_rows`]; with `rehash`, the columns of
/// the product's runs too) and hold strictly ascending columns (what
/// every binary search above relies on), and together they must
/// reproduce the manifest's content checksum.
fn check_content(
    reader: &CsrMap,
    m: &ShardManifest,
    product: &KronProduct,
    rehash: bool,
) -> Result<(), StreamError> {
    let name = m.file.as_deref().unwrap_or_default();
    let fail = |msg: String| StreamError::Shard(m.shard, format!("{name}: {msg}"));
    let mut hash = StreamHash::default();
    let mut unsorted: Option<u64> = None;
    // one decode buffer for the whole shard
    let mut buf = Vec::new();
    // the manifest is its plan entry, so `rows` yields a length per vertex
    let lengths = product.row_lengths_in_rows(m.rows.clone());
    // the writer's own runs: they tile each row, in vertex order
    let mut runs = rehash.then(|| product.runs_in_rows(m.rows.clone()));
    for (p, want) in m.vertices.clone().zip(lengths) {
        let row = reader
            .row_into(p, &mut buf)
            .ok_or_else(|| fail(format!("row {p} does not decode")))?;
        let got = row.len() as u64;
        if got != want {
            return Err(fail(format!(
                "row {p} has {got} entries, closed form says {want}"
            )));
        }
        if let Some(runs) = runs.as_mut() {
            // the row has its closed-form length, so its runs end with it
            let mut at = 0;
            while at < row.len() {
                let (q, cols) = runs.next_run().expect("runs tile every row");
                debug_assert_eq!(q, p, "a run of another row");
                let stored = &row[at..at + cols.len()];
                if let Some(k) = stored.iter().zip(cols).position(|(g, w)| g != w) {
                    return Err(fail(format!(
                        "row {p} position {}: stored column {}, the product's is {}",
                        at + k,
                        stored[k],
                        cols[k]
                    )));
                }
                at += cols.len();
            }
        }
        // A csr2 row is ascending by construction: `decode_row_vd`
        // refuses a zero or wrapped gap. Only raw v1 columns can be out
        // of order.
        if !reader.is_v2() && row.windows(2).any(|w| w[0] >= w[1]) {
            unsorted.get_or_insert(p);
        }
        hash.update_run(p, row);
    }
    if hash != m.hash {
        return Err(fail("content checksum mismatch".into()));
    }
    // The checksum is order-independent, so a row with the right columns
    // in the wrong order still passes it.
    match unsorted {
        Some(p) => Err(fail(format!("row {p} columns not strictly ascending"))),
        None => Ok(()),
    }
}

/// One shard of an opened run: its manifest plus the live mapping.
pub struct OpenShard {
    /// The shard's manifest, as read from `shard_NNNNN.json`.
    pub manifest: ShardManifest,
    /// The mmap-backed reader over the shard's CSR artifact (either
    /// format, dispatched on the file magic).
    pub reader: CsrMap,
}

impl std::fmt::Debug for OpenShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenShard")
            .field("manifest", &self.manifest)
            .field("mapped_nnz", &self.reader.nnz())
            .finish()
    }
}

/// A CSR run directory, opened and validated once, with the claimed
/// shards memory-mapped and *every* product vertex routable to its
/// owning shard (resident here or not) by the run's [`ShardPlan`].
///
/// [`ShardSet::open`] validates structure only; [`ShardSet::open_verified`]
/// additionally reads every claimed shard's rows and checksum once.
/// [`ShardSet::open_with`] reads only a claimed contiguous shard range —
/// the multi-node case.
pub struct ShardSet {
    dir: PathBuf,
    run: RunSummary,
    /// The product rebuilt from the run's factor copies: the ground truth
    /// the plan, the oracle and tri-census validation all read.
    product: Arc<KronProduct>,
    /// Product-vertex range of every shard of the run, by shard index —
    /// the ownership map, from the plan. Always complete, even for
    /// subset opens.
    ranges: Vec<std::ops::Range<u64>>,
    /// The opened (claimed) shards, in index order: shard
    /// `subset.start + i` is `shards[i]`.
    shards: Vec<OpenShard>,
    /// The claimed shard range. `0..ranges.len()` for a full open.
    subset: std::ops::Range<usize>,
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("dir", &self.dir)
            .field("shards", &self.ranges.len())
            .field("subset", &self.subset)
            .field("num_vertices", &self.num_vertices())
            .finish()
    }
}

impl ShardSet {
    /// Open a run directory with structural validation (factor copies,
    /// plan, headers, sizes — no content hashing).
    ///
    /// # Errors
    ///
    /// Fails when `run.json`, a factor copy or any manifest is missing or
    /// malformed, the run format is not CSR, the factor copies are not
    /// the ones `run.json` records, a manifest disagrees with its plan
    /// entry, or any artifact's mapped header disagrees with its manifest.
    pub fn open(dir: &Path) -> Result<ShardSet, StreamError> {
        Self::open_with(dir, None, false)
    }

    /// Open a run directory and additionally verify every shard's rows
    /// and content checksum against its manifest, once.
    ///
    /// # Errors
    ///
    /// Everything [`ShardSet::open`] rejects, plus any shard with a row
    /// that does not decode, is not strictly ascending or does not have
    /// its closed-form length, or whose mapped contents fail the
    /// manifest's stream hash.
    pub fn open_verified(dir: &Path) -> Result<ShardSet, StreamError> {
        Self::open_with(dir, None, true)
    }

    /// Open the claimed contiguous shard range `subset` (`None`: every
    /// shard), with structural validation of the claimed manifests and
    /// artifacts and, with `verify`, their content checksums too.
    /// Manifests and artifacts outside `subset` are neither read nor
    /// required to exist on this node: the plan routes their vertices.
    ///
    /// # Errors
    ///
    /// Everything [`ShardSet::open`] (and, with `verify`,
    /// [`ShardSet::open_verified`]) rejects for the claimed shards, plus
    /// an empty claim or one beyond the run's shards
    /// (`subset.end > shards` or `subset.start ≥ subset.end`).
    pub fn open_with(
        dir: &Path,
        subset: Option<std::ops::Range<usize>>,
        verify: bool,
    ) -> Result<ShardSet, StreamError> {
        Self::open_impl(dir, verify, subset, 0)
    }

    /// Every open: `threads` workers read (and, with `verify`, content-
    /// check) the claimed shards; 0 means every available core.
    fn open_impl(
        dir: &Path,
        verify: bool,
        subset: Option<std::ops::Range<usize>>,
        threads: usize,
    ) -> Result<ShardSet, StreamError> {
        let ground = Ground::load(dir)?;
        let run = &ground.run;
        if !run.format.is_csr() {
            return Err(StreamError::Config(format!(
                "{}: run format is {:?}; only csr or csr2 shards are queryable in place \
                 (regenerate with --format csr2)",
                dir.display(),
                run.format.as_str()
            )));
        }
        let subset = match subset {
            None => 0..run.shards,
            Some(s) => {
                if s.start >= s.end {
                    return Err(StreamError::Config(format!(
                        "claimed shard range {}..{} is empty",
                        s.start, s.end
                    )));
                }
                if s.end > run.shards {
                    return Err(StreamError::Config(format!(
                        "claimed shard range {}..{} lies outside the run's {} shards",
                        s.start, s.end, run.shards
                    )));
                }
                s
            }
        };
        use Depth::{Content, Header};
        let depth = if verify { Content } else { Header };

        // The claimed shards only, shard-parallel. The others' files may
        // live on other nodes.
        let shards = for_each_shard(subset.len(), threads, |i| {
            let (manifest, reader) = ground.check(dir, subset.start + i, depth)?;
            let reader = reader.expect("a csr run admits csr shards only");
            Ok(OpenShard { manifest, reader })
        })?;
        let Ground { run, product, plan } = ground;
        let ranges = plan.iter().map(|s| s.stats.vertices.clone()).collect();
        Ok(ShardSet {
            dir: dir.to_path_buf(),
            run,
            product: Arc::new(product),
            ranges,
            shards,
            subset,
        })
    }

    /// The run directory this set was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The run summary (`run.json`).
    pub fn run(&self) -> &RunSummary {
        &self.run
    }

    /// The product rebuilt from the run's factor copies at open — the
    /// closed-form ground truth every consumer of the set shares.
    pub fn product(&self) -> &Arc<KronProduct> {
        &self.product
    }

    /// Product vertex count `n_C = n_A·n_B`.
    pub fn num_vertices(&self) -> u64 {
        self.product.num_vertices()
    }

    /// Total adjacency entries across all shards (`nnz(A)·nnz(B)`).
    pub fn total_entries(&self) -> u128 {
        self.run.total_entries
    }

    /// Number of shards **of the run** (the ownership map covers all of
    /// them, whether resident here or not).
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The claimed (resident) shard range. Equals `0..num_shards()` for
    /// a full open.
    pub fn subset(&self) -> std::ops::Range<usize> {
        self.subset.clone()
    }

    /// Whether every shard of the run is resident (a full open).
    pub fn is_complete(&self) -> bool {
        self.subset == (0..self.ranges.len())
    }

    /// Product-vertex range of shard `index` (resident or not), from the
    /// ownership map. `None` for an out-of-range shard index.
    pub fn shard_vertices(&self, index: usize) -> Option<std::ops::Range<u64>> {
        self.ranges.get(index).cloned()
    }

    /// Product-vertex span covered by the claimed subset,
    /// `[first claimed shard's lo, last claimed shard's hi)`.
    pub fn subset_vertices(&self) -> std::ops::Range<u64> {
        self.ranges[self.subset.start].start..self.ranges[self.subset.end - 1].end
    }

    /// Total mapped artifact bytes (claimed shards only).
    pub fn mapped_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.manifest.file_bytes).sum()
    }

    /// The opened (claimed) shards, in index order: entry `i` is shard
    /// `subset().start + i`. Prefer [`ShardSet::local`] to look one up by
    /// its run-wide shard index.
    pub fn shards(&self) -> &[OpenShard] {
        &self.shards
    }

    /// The opened shard with run-wide index `shard`, or `None` when that
    /// shard is outside the claimed subset (its rows live on another
    /// node).
    pub fn local(&self, shard: usize) -> Option<&OpenShard> {
        self.subset
            .contains(&shard)
            .then(|| &self.shards[shard - self.subset.start])
    }

    /// Route a product vertex to the run-wide index of the shard owning
    /// its row (resident here or not), or `None` if `v` lies outside
    /// every shard's vertex range.
    ///
    /// Shard vertex ranges are contiguous and ascending (they tile
    /// `0..n_C`), so routing is a binary search over the range ends;
    /// empty shards (a plan with more shards than left-factor rows) are
    /// skipped naturally because no vertex satisfies their empty range.
    pub fn route(&self, v: u64) -> Option<usize> {
        let i = self.ranges.partition_point(|r| r.end <= v);
        (i < self.ranges.len() && self.ranges[i].contains(&v)).then_some(i)
    }

    /// The adjacency row of product vertex `v` (sorted ascending, self
    /// loop included): borrowed from the owning shard's mapping for v1,
    /// decoded on demand for v2 — or `None` if `v` is outside every shard
    /// **or its shard is not resident in this set's subset**.
    pub fn row(&self, v: u64) -> Option<Cow<'_, [u64]>> {
        let shard = self.route(v)?;
        self.local(shard)?.reader.row(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{stream_product, StreamConfig};
    use kron::KronProduct;
    use kron_gen::deterministic::clique;
    use kron_graph::Graph;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kron_open_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn product() -> KronProduct {
        let a = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)]);
        let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0)]);
        KronProduct::new(a, b)
    }

    fn streamed(dir: &Path, c: &KronProduct, shards: usize) {
        streamed_fmt(dir, c, shards, OutputFormat::Csr);
    }

    fn streamed_fmt(dir: &Path, c: &KronProduct, shards: usize, format: OutputFormat) {
        let mut cfg = StreamConfig::new(dir, format);
        cfg.shards = shards;
        stream_product(c, &cfg).unwrap();
    }

    #[test]
    fn open_routes_every_vertex_to_its_row() {
        let dir = tmpdir("route");
        let c = product();
        streamed(&dir, &c, 3);
        let set = ShardSet::open_verified(&dir).unwrap();
        assert_eq!(set.num_shards(), 3);
        assert_eq!(set.num_vertices(), c.num_vertices());
        assert_eq!(set.total_entries(), c.nnz());
        assert!(set.mapped_bytes() > 0);
        for v in 0..c.num_vertices() {
            let shard = set.route(v).expect("in range");
            assert!(set.shards()[shard].manifest.vertices.contains(&v));
            assert_eq!(&*set.row(v).unwrap(), c.neighbors(v).as_slice(), "row {v}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vertex_outside_all_row_ranges_is_none_not_garbage() {
        let dir = tmpdir("oob");
        let c = product();
        streamed(&dir, &c, 2);
        let set = ShardSet::open(&dir).unwrap();
        let n = set.num_vertices();
        for v in [n, n + 1, u64::MAX] {
            assert_eq!(set.route(v), None);
            assert!(set.row(v).is_none());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_and_single_row_shards_open_and_serve() {
        // More shards than left-factor rows forces empty shards into the
        // plan; the remaining shards each cover a single row block.
        let dir = tmpdir("tiny");
        let a = Graph::from_edges(2, [(0, 1)]);
        let b = clique(3);
        let c = KronProduct::new(a, b);
        streamed(&dir, &c, 5);
        let set = ShardSet::open_verified(&dir).unwrap();
        assert_eq!(set.num_shards(), 5);
        let empty = set
            .shards()
            .iter()
            .filter(|s| s.manifest.vertices.is_empty())
            .count();
        assert!(empty > 0, "plan should contain empty shards");
        for v in 0..c.num_vertices() {
            assert_eq!(&*set.row(v).unwrap(), c.neighbors(v).as_slice());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_non_csr_runs() {
        let dir = tmpdir("count_fmt");
        let c = product();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Count);
        cfg.shards = 2;
        stream_product(&c, &cfg).unwrap();
        let err = ShardSet::open(&dir).unwrap_err();
        assert!(matches!(err, StreamError::Config(_)), "{err}");
        assert!(err.to_string().contains("csr"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_verified_detects_tampered_columns() {
        let dir = tmpdir("tamper");
        let c = product();
        streamed(&dir, &c, 2);
        // flip a column id in shard 1's artifact body (past the offsets,
        // preserving size and offset structure)
        let m = load_manifest(&dir, 1).unwrap();
        let path = dir.join(m.file.as_deref().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let rows = (m.vertices.end - m.vertices.start) as usize;
        let col0 = 32 + 8 * (rows + 1);
        bytes[col0] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        // structural open cannot see it…
        assert!(ShardSet::open(&dir).is_ok());
        // …the verified open must
        let err = ShardSet::open_verified(&dir).unwrap_err();
        assert!(matches!(err, StreamError::Shard(1, _)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_verified_rejects_swapped_columns_the_checksum_cannot_see() {
        // The stream hash is order-independent: swapping two columns of
        // a row keeps it, but breaks every binary search over that row.
        let dir = tmpdir("swapped");
        let c = product();
        streamed(&dir, &c, 2);
        let m = load_manifest(&dir, 0).unwrap();
        let path = dir.join(m.file.as_deref().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let rows = (m.vertices.end - m.vertices.start) as usize;
        let row = (m.vertices.start..m.vertices.end)
            .find(|&v| c.neighbors(v).len() >= 2)
            .unwrap();
        let skip: usize = (m.vertices.start..row).map(|v| c.neighbors(v).len()).sum();
        let at = 32 + 8 * (rows + 1) + 8 * skip;
        let (a, b) = bytes[at..at + 16].split_at_mut(8);
        a.swap_with_slice(b);
        std::fs::write(&path, &bytes).unwrap();
        assert!(ShardSet::open(&dir).is_ok());
        for err in [
            ShardSet::open_verified(&dir).unwrap_err(),
            crate::verify_shards(&dir, false).unwrap_err(),
        ] {
            assert!(matches!(err, StreamError::Shard(0, _)), "{err}");
            assert!(
                err.to_string()
                    .contains(&format!("row {row} columns not strictly ascending")),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_lowest_corrupt_shard_is_named_whatever_the_worker_count() {
        let c = product();
        for format in [OutputFormat::Csr, OutputFormat::Csr2] {
            let dir = tmpdir(&format!("lowest_{}", format.as_str()));
            streamed_fmt(&dir, &c, 4, format);
            for shard in [1, 3] {
                let m = load_manifest(&dir, shard).unwrap();
                let path = dir.join(m.file.as_deref().unwrap());
                let mut bytes = std::fs::read(&path).unwrap();
                *bytes.last_mut().unwrap() ^= 1;
                std::fs::write(&path, &bytes).unwrap();
            }
            // with 4 workers shard 3 is checked alongside shard 1; repeat so
            // a first-error-wins policy could not pass by luck
            for threads in [1].into_iter().chain([4; 8]) {
                for err in [
                    ShardSet::open_impl(&dir, true, None, threads).unwrap_err(),
                    crate::verify::verify_with(&dir, false, threads).unwrap_err(),
                    crate::verify::verify_with(&dir, true, threads).unwrap_err(),
                ] {
                    assert!(
                        matches!(err, StreamError::Shard(1, _)),
                        "{threads} workers: {err}"
                    );
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn open_rejects_truncated_artifact_naming_the_file() {
        let dir = tmpdir("trunc");
        let c = product();
        streamed(&dir, &c, 2);
        let m = load_manifest(&dir, 0).unwrap();
        let name = m.file.as_deref().unwrap();
        let path = dir.join(name);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        let err = ShardSet::open(&dir).unwrap_err();
        assert!(matches!(err, StreamError::Shard(0, _)), "{err}");
        assert!(
            err.to_string().contains(name),
            "error must name the file: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subset_open_maps_only_claimed_shards_but_routes_everything() {
        let dir = tmpdir("subset");
        let c = product();
        streamed(&dir, &c, 4);
        let full = ShardSet::open(&dir).unwrap();
        assert!(full.is_complete());
        let set = ShardSet::open_with(&dir, Some(1..3), true).unwrap();
        assert!(!set.is_complete());
        assert_eq!(set.num_shards(), 4);
        assert_eq!(set.subset(), 1..3);
        assert_eq!(set.shards().len(), 2);
        assert_eq!(set.num_vertices(), c.num_vertices());
        let span = set.subset_vertices();
        for v in 0..c.num_vertices() {
            // the ownership map routes every vertex of the product…
            let shard = set.route(v).expect("in range");
            assert_eq!(shard, full.route(v).unwrap(), "route {v}");
            assert_eq!(
                set.shard_vertices(shard).unwrap(),
                full.shards()[shard].manifest.vertices
            );
            // …but only claimed rows are resident
            if span.contains(&v) {
                assert_eq!(&*set.row(v).unwrap(), c.neighbors(v).as_slice());
                assert!(set.local(shard).is_some());
            } else {
                assert!(set.row(v).is_none());
                assert!(set.local(shard).is_none());
            }
        }
        assert!(set.mapped_bytes() < full.mapped_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subset_open_rejects_claims_the_manifests_do_not_cover() {
        let dir = tmpdir("subset_bad_claim");
        let c = product();
        streamed(&dir, &c, 3);
        let backwards = std::ops::Range { start: 5, end: 4 };
        for bad in [0..4, 3..5, 2..2, backwards] {
            let err = ShardSet::open_with(&dir, Some(bad.clone()), false).unwrap_err();
            assert!(matches!(err, StreamError::Config(_)), "{bad:?}: {err}");
            if bad == (0..4) {
                assert!(
                    err.to_string()
                        .contains("claimed shard range 0..4 lies outside the run's 3 shards"),
                    "{err}"
                );
            }
        }
        // a claim needs only its own manifests (the plan is the ownership
        // map)…
        std::fs::remove_file(dir.join(crate::manifest_name(2))).unwrap();
        assert!(ShardSet::open_with(&dir, Some(0..1), false).is_ok());
        // …and a claim of the missing one names it
        let err = ShardSet::open_with(&dir, Some(1..3), false).unwrap_err();
        assert!(err.to_string().contains("shard_00002.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subset_open_tolerates_missing_non_claimed_artifacts_only() {
        let dir = tmpdir("subset_missing");
        let c = product();
        streamed(&dir, &c, 3);
        // a non-claimed artifact may live on another node entirely
        let other = load_manifest(&dir, 2).unwrap();
        std::fs::remove_file(dir.join(other.file.as_deref().unwrap())).unwrap();
        let set = ShardSet::open_with(&dir, Some(0..2), true).unwrap();
        for v in set.subset_vertices() {
            assert_eq!(&*set.row(v).unwrap(), c.neighbors(v).as_slice());
        }
        // …but a *claimed* artifact must be present and valid
        assert!(ShardSet::open_with(&dir, Some(2..3), false).is_err());
        assert!(ShardSet::open_with(&dir, Some(0..3), false).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subset_open_needs_only_its_own_manifests_and_artifacts() {
        let dir = tmpdir("subset_own_files");
        let c = product();
        streamed(&dir, &c, 3);
        let m2 = load_manifest(&dir, 2).unwrap();
        std::fs::remove_file(dir.join(m2.file.as_deref().unwrap())).unwrap();
        std::fs::remove_file(dir.join(crate::manifest_name(2))).unwrap();
        let set = ShardSet::open_with(&dir, Some(0..2), true).unwrap();
        // the plan still routes shard 2's vertices to shard 2…
        for v in m2.vertices.clone() {
            assert_eq!(set.route(v), Some(2), "route {v}");
            assert!(set.row(v).is_none());
        }
        assert_eq!(set.shard_vertices(2), Some(m2.vertices));
        // …and every claimed row is served
        for v in set.subset_vertices() {
            assert_eq!(&*set.row(v).unwrap(), c.neighbors(v).as_slice());
        }
        let err = ShardSet::open(&dir).unwrap_err();
        assert!(err.to_string().contains("shard_00002.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_a_manifest_its_plan_entry_contradicts() {
        let c = product();
        // an edited closed-form sum, artifact untouched
        let dir = tmpdir("plan_edited");
        streamed(&dir, &c, 3);
        let mut m = load_manifest(&dir, 1).unwrap();
        m.degree_sum += 1;
        crate::manifest::write_json_atomic(&dir, &crate::manifest_name(1), &m.to_json()).unwrap();
        for subset in [None, Some(1..2)] {
            let err = ShardSet::open_with(&dir, subset.clone(), false).unwrap_err();
            assert!(matches!(err, StreamError::Manifest(_)), "{subset:?}: {err}");
            assert!(err.to_string().contains("shard 1: degree_sum"), "{err}");
        }
        // shard 0's manifest and artifact from a 2-shard run of the same
        // product: consistent with each other, not with this run's plan
        let other = tmpdir("plan_other_count");
        streamed(&other, &c, 2);
        let m0 = load_manifest(&other, 0).unwrap();
        for name in [crate::manifest_name(0), m0.file.clone().unwrap()] {
            std::fs::copy(other.join(&name), dir.join(&name)).unwrap();
        }
        let err = ShardSet::open_with(&dir, Some(0..1), true).unwrap_err();
        assert!(matches!(err, StreamError::Manifest(_)), "{err}");
        assert!(err.to_string().contains("shard 0:"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&other).ok();
    }

    #[test]
    fn subset_open_verified_hashes_only_claimed_contents() {
        let dir = tmpdir("subset_verify");
        let c = product();
        streamed(&dir, &c, 3);
        // tamper shard 2's contents: a 0..2 claim cannot see it, a claim
        // covering shard 2 must reject it
        let m = load_manifest(&dir, 2).unwrap();
        let path = dir.join(m.file.as_deref().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let rows = (m.vertices.end - m.vertices.start) as usize;
        bytes[32 + 8 * (rows + 1)] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ShardSet::open_with(&dir, Some(0..2), true).is_ok());
        let err = ShardSet::open_with(&dir, Some(1..3), true).unwrap_err();
        assert!(matches!(err, StreamError::Shard(2, _)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csr2_run_opens_verified_and_answers_like_csr() {
        let dir = tmpdir("v2_route");
        let dir1 = tmpdir("v2_route_twin");
        let c = product();
        streamed_fmt(&dir, &c, 3, OutputFormat::Csr2);
        streamed(&dir1, &c, 3);
        let set = ShardSet::open_verified(&dir).unwrap();
        let twin = ShardSet::open_verified(&dir1).unwrap();
        assert_eq!(set.num_shards(), 3);
        assert!(
            set.mapped_bytes() < twin.mapped_bytes(),
            "csr2 must be smaller: {} vs {}",
            set.mapped_bytes(),
            twin.mapped_bytes()
        );
        for (s, t) in set.shards().iter().zip(twin.shards()) {
            // identical entries ⇒ identical order-independent checksums
            assert_eq!(s.manifest.hash, t.manifest.hash);
            assert_eq!(s.manifest.format, OutputFormat::Csr2);
        }
        for v in 0..c.num_vertices() {
            assert_eq!(&*set.row(v).unwrap(), c.neighbors(v).as_slice(), "row {v}");
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir1).ok();
    }

    #[test]
    fn open_verified_detects_tampered_csr2_stream() {
        let dir = tmpdir("v2_tamper");
        let c = product();
        streamed_fmt(&dir, &c, 2, OutputFormat::Csr2);
        // flip a byte in shard 1's varint column stream (past the byte
        // offsets, preserving size and offset structure)
        let m = load_manifest(&dir, 1).unwrap();
        let path = dir.join(m.file.as_deref().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let rows = (m.vertices.end - m.vertices.start) as usize;
        let stream0 = 32 + 8 * (rows + 1);
        bytes[stream0] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            ShardSet::open(&dir).is_ok(),
            "structural open cannot see it"
        );
        let err = ShardSet::open_verified(&dir).unwrap_err();
        assert!(matches!(err, StreamError::Shard(1, _)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_format_shards_open_but_renamed_artifacts_do_not() {
        // The state `kron compact` passes through: some shards already
        // csr2, the rest still csr. Both must serve.
        let dir = tmpdir("mixed");
        let dir2 = tmpdir("mixed_v2");
        let c = product();
        streamed(&dir, &c, 2);
        streamed_fmt(&dir2, &c, 2, OutputFormat::Csr2);
        // graft shard 1 (artifact + manifest) from the csr2 twin run
        let m2 = load_manifest(&dir2, 1).unwrap();
        let name2 = m2.file.as_deref().unwrap();
        std::fs::copy(dir2.join(name2), dir.join(name2)).unwrap();
        crate::manifest::write_json_atomic(&dir, &crate::manifest_name(1), &m2.to_json()).unwrap();
        let set = ShardSet::open_verified(&dir).unwrap();
        for v in 0..c.num_vertices() {
            assert_eq!(&*set.row(v).unwrap(), c.neighbors(v).as_slice(), "row {v}");
        }
        // …but a manifest whose format contradicts the artifact magic is
        // rejected, not silently misread
        let m1 = load_manifest(&dir, 1).unwrap();
        let mut lied = m1.clone();
        lied.format = OutputFormat::Csr;
        crate::manifest::write_json_atomic(&dir, &crate::manifest_name(1), &lied.to_json())
            .unwrap();
        let err = ShardSet::open(&dir).unwrap_err();
        assert!(matches!(err, StreamError::Shard(1, _)), "{err}");
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn open_errors_name_the_missing_manifest() {
        let dir = tmpdir("missing_manifest");
        let c = product();
        streamed(&dir, &c, 3);
        std::fs::remove_file(dir.join(crate::manifest_name(1))).unwrap();
        let err = ShardSet::open(&dir).unwrap_err();
        assert!(
            err.to_string().contains("shard_00001.json"),
            "error must name the manifest: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

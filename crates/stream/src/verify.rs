//! Independent validation of a completed (or partial) stream run: every
//! shard is re-checked against the closed-form factor statistics and its
//! on-disk artifact.

use crate::driver::{for_each_shard, load_factors};
use crate::manifest::{RunSummary, StreamHash};
use crate::open::{admit_shard, check_content, load_run_manifest};
use crate::plan::{ShardPlan, ShardSpec};
use crate::StreamError;
use kron::KronProduct;
use std::path::Path;

/// Outcome of [`verify_shards`].
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Shards checked.
    pub shards: usize,
    /// Total adjacency entries across all shard manifests.
    pub total_entries: u128,
    /// Artifact bytes checked on disk.
    pub artifact_bytes: u64,
    /// Whether shard streams were regenerated from the factors and
    /// compared by checksum.
    pub rehashed: bool,
}

/// Verify a run directory produced by [`crate::stream_product`].
///
/// Checks, per shard: the manifest's closed-form statistics against a
/// fresh recomputation from the factor copies in the directory; the
/// artifact's existence, size, structure (CSR offsets and closed-form row
/// lengths), and content checksum; and globally that the shard row blocks
/// tile `0..n_A` disjointly and the entry counts sum to `nnz(A)·nnz(B)`.
///
/// With `rehash`, each shard's entry stream is additionally regenerated
/// from the factors and compared against the manifest checksum — this
/// re-does the generation work and is the strongest (slowest) check.
///
/// Shards are checked in parallel on every available core.
///
/// # Errors
///
/// The first failing check of the lowest-index failing shard — whatever
/// the core count — always naming the offending manifest or artifact file
/// and the shard index.
pub fn verify_shards(dir: &Path, rehash: bool) -> Result<VerifyReport, StreamError> {
    verify_with(dir, rehash, 0)
}

/// What one shard contributes to the run-wide totals.
struct ShardTotals {
    entries: u128,
    triangle_sum: u128,
    artifact_bytes: u64,
}

/// Every per-shard check of [`verify_shards`], for the shard `spec` plans.
fn verify_shard(
    dir: &Path,
    run: &RunSummary,
    product: &KronProduct,
    spec: &ShardSpec,
    rehash: bool,
) -> Result<ShardTotals, StreamError> {
    let m = load_run_manifest(dir, run, spec.index)?;
    let fail = |msg: String| StreamError::Shard(spec.index, msg);
    // closed-form checksums, recomputed from the factors
    m.matches_stats(&spec.stats)
        .map_err(StreamError::Manifest)?;

    // artifact structure + content checksum
    let artifact_bytes = if m.format.is_csr() {
        let reader = admit_shard(dir, &m)?;
        // one pass over the rows of either format: every row decodes, has
        // its closed-form length and strictly ascending columns, and the
        // content checksum holds
        let mut lengths = product.row_lengths_in_rows(spec.stats.rows.clone());
        check_content(&reader, &m, |p, row| {
            let want = lengths.next().unwrap_or(0);
            if row.len() as u64 == want {
                return Ok(());
            }
            Err(format!(
                "row {p} has {} entries, closed form says {want}",
                row.len()
            ))
        })?;
        m.file_bytes
    } else if m.file.is_some() {
        return Err(fail("count shard names a file".into()));
    } else {
        0
    };

    if rehash {
        let mut regen = StreamHash::default();
        let mut runs = product.runs_in_rows(spec.stats.rows.clone());
        while let Some((p, cols)) = runs.next_run() {
            regen.update_run(p, cols);
        }
        if regen != m.hash {
            return Err(fail(
                "regenerated stream checksum disagrees with manifest".into(),
            ));
        }
    }
    Ok(ShardTotals {
        entries: m.entries,
        triangle_sum: m.triangle_sum,
        artifact_bytes,
    })
}

/// [`verify_shards`] on `threads` workers (0: every available core).
pub(crate) fn verify_with(
    dir: &Path,
    rehash: bool,
    threads: usize,
) -> Result<VerifyReport, StreamError> {
    let run = RunSummary::load(dir)?;
    let product = load_factors(dir, &run)?;
    let plan = ShardPlan::new(&product, run.shards);
    let shards = for_each_shard(run.shards, threads, |i| {
        let spec = plan.get(i).expect("the plan has run.shards shards");
        verify_shard(dir, &run, &product, spec, rehash)
    })?;

    let mut total_entries = 0u128;
    let mut total_triangle_sum = 0u128;
    let mut artifact_bytes = 0u64;
    for shard in shards {
        total_entries += shard.entries;
        total_triangle_sum += shard.triangle_sum;
        artifact_bytes += shard.artifact_bytes;
    }
    if total_entries != product.nnz() {
        return Err(StreamError::Manifest(format!(
            "shard entries sum to {total_entries}, product nnz is {}",
            product.nnz()
        )));
    }
    if total_triangle_sum != product.total_triangle_participation() {
        return Err(StreamError::Manifest(format!(
            "shard triangle sums total {total_triangle_sum}, closed form says {}",
            product.total_triangle_participation()
        )));
    }
    if total_entries != run.total_entries {
        return Err(StreamError::Manifest(
            "run.json total_entries disagrees with shard manifests".into(),
        ));
    }

    Ok(VerifyReport {
        shards: run.shards,
        total_entries,
        artifact_bytes,
        rehashed: rehash,
    })
}

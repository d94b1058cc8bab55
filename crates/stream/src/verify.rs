//! Independent validation of a completed (or partial) stream run: every
//! shard is re-checked against the closed-form factor statistics and its
//! on-disk artifact.

use crate::driver::{for_each_shard, load_factors, run_totals};
use crate::manifest::{RunSummary, ShardManifest};
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
    /// Whether every stored row was compared with the product's row,
    /// regenerated from the factors.
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
/// With `rehash`, every stored row is also compared with the product's
/// row ([`KronProduct::row`]) in the same single pass over the artifact,
/// so a failure names the first differing row and position — the
/// strongest check, at the cost of regenerating every row. A `count`
/// shard stores no rows, so there it adds nothing.
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

/// Every per-shard check of [`verify_shards`], for the shard `spec` plans;
/// returns the checked manifest.
fn verify_shard(
    dir: &Path,
    run: &RunSummary,
    product: &KronProduct,
    spec: &ShardSpec,
    rehash: bool,
) -> Result<ShardManifest, StreamError> {
    let m = load_run_manifest(dir, run, spec.index)?;
    // closed-form checksums, recomputed from the factors
    m.matches_stats(&spec.stats)
        .map_err(StreamError::Manifest)?;
    if !m.format.is_csr() {
        return match m.file {
            Some(_) => Err(StreamError::Shard(
                spec.index,
                "count shard names a file".into(),
            )),
            None => Ok(m),
        };
    }
    // one pass over the rows of either format: every row decodes, has its
    // closed-form length (and, with `rehash`, the product's columns) and
    // strictly ascending columns, and the content checksum holds
    let reader = admit_shard(dir, &m)?;
    check_content(&reader, &m, |p, row| {
        let want = product.row_len(p);
        if row.len() as u64 != want {
            return Err(format!(
                "row {p} has {} entries, closed form says {want}",
                row.len()
            ));
        }
        if rehash {
            let mut pairs = row.iter().copied().zip(product.row(p)).enumerate();
            if let Some((at, (got, want))) = pairs.find(|(_, (got, want))| got != want) {
                return Err(format!(
                    "row {p} position {at}: stored column {got}, the product's is {want}"
                ));
            }
        }
        Ok(())
    })?;
    Ok(m)
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
    let manifests = for_each_shard(run.shards, threads, |i| {
        let spec = plan.get(i).expect("the plan has run.shards shards");
        verify_shard(dir, &run, &product, spec, rehash)
    })?;
    let (total_entries, _) = run_totals(&product, &manifests)?;
    if total_entries != run.total_entries {
        return Err(StreamError::Manifest(
            "run.json total_entries disagrees with shard manifests".into(),
        ));
    }

    Ok(VerifyReport {
        shards: run.shards,
        total_entries,
        // admitted artifacts only: a count shard has none to measure
        artifact_bytes: manifests
            .iter()
            .filter(|m| m.file.is_some())
            .map(|m| m.file_bytes)
            .sum(),
        rehashed: rehash,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{load_manifest, stream_product, StreamConfig};
    use crate::manifest::{manifest_name, write_json_atomic, OutputFormat, StreamHash};
    use crate::sink::{Csr2Sink, CsrSink, EdgeSink};
    use crate::{CsrMap, ShardSet};
    use kron_graph::Graph;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kron_verify_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn product() -> KronProduct {
        let a = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)]);
        let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0)]);
        KronProduct::new(a, b)
    }

    /// Rewrite shard `shard` through its own sink with one column of a
    /// multi-entry row moved into the gap after it — the row stays
    /// strictly ascending and as long — and re-derive the manifest's hash
    /// and size, so decode, length, order and checksum all still pass.
    /// Returns the row and the position changed.
    fn forge_row(dir: &Path, shard: usize) -> (u64, usize) {
        let mut m = load_manifest(dir, shard).unwrap();
        let name = m.file.clone().unwrap();
        let reader = CsrMap::open(&dir.join(&name)).unwrap();
        let mut rows: Vec<Vec<u64>> = m
            .vertices
            .clone()
            .map(|p| reader.row(p).unwrap().to_vec())
            .collect();
        let (r, at) = rows
            .iter()
            .enumerate()
            .find_map(|(r, row)| Some((r, row.windows(2).position(|w| w[0] + 1 < w[1])?)))
            .expect("a row with a gap");
        rows[r][at] += 1;
        let lengths = rows.iter().map(|row| row.len() as u64);
        let lo = m.vertices.start;
        let mut sink: Box<dyn EdgeSink> = match m.format {
            OutputFormat::Csr => Box::new(CsrSink::create(dir, &name, lo, lengths).unwrap()),
            _ => Box::new(Csr2Sink::create(dir, &name, lo, lengths).unwrap()),
        };
        let mut hash = StreamHash::default();
        for (p, row) in m.vertices.clone().zip(&rows) {
            sink.push_run(p, row).unwrap();
            hash.update_run(p, row);
        }
        m.file_bytes = sink.finish().unwrap().unwrap().1;
        m.hash = hash;
        write_json_atomic(dir, &manifest_name(shard), &m.to_json()).unwrap();
        (lo + r as u64, at)
    }

    #[test]
    fn rehash_names_the_row_and_position_every_other_level_accepts() {
        for format in [OutputFormat::Csr, OutputFormat::Csr2] {
            let dir = tmpdir(format.as_str());
            let mut cfg = StreamConfig::new(&dir, format);
            cfg.shards = 3;
            stream_product(&product(), &cfg).unwrap();
            let (row, at) = forge_row(&dir, 1);
            verify_shards(&dir, false).unwrap();
            ShardSet::open_verified(&dir).unwrap();
            let err = verify_shards(&dir, true).unwrap_err();
            assert!(matches!(err, StreamError::Shard(1, _)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("row {row} position {at}:")), "{msg}");
            assert!(
                msg.contains(&format!("shard_00001.{}", format.as_str())),
                "{msg}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

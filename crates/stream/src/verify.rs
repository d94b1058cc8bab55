//! Independent validation of a completed (or partial) stream run: every
//! shard is re-checked against the closed-form factor statistics and its
//! on-disk artifact.

use crate::driver::for_each_shard;
use crate::open::Depth::{Content, Rehash};
use crate::open::Ground;
use crate::StreamError;
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

/// Verify a run directory produced by [`crate::stream_product`]: a
/// verified open ([`crate::ShardSet::open_verified`]) of every shard,
/// `count` runs included.
///
/// Checks `run.json`'s entry total against the factor copies in the
/// directory, then per shard: the manifest against its plan entry (range
/// and closed-form statistics, recomputed from the factors); the
/// artifact's existence, size and header; and every row's decoding,
/// order and closed-form length, and the content checksum. Since the
/// plan's row blocks tile `0..n_A` and its entries sum to
/// `nnz(A)·nnz(B)`, manifests that each equal their plan entry cover the
/// product exactly. A `count` shard has no artifact, so its check ends
/// at the manifest.
///
/// With `rehash`, every stored row is also compared with the product's
/// row ([`kron::KronProduct::row`]) in the same single pass over the
/// artifact, so a failure names the first differing row and position —
/// the strongest check, at the cost of regenerating every row.
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

/// [`verify_shards`] on `threads` workers (0: every available core).
pub(crate) fn verify_with(
    dir: &Path,
    rehash: bool,
    threads: usize,
) -> Result<VerifyReport, StreamError> {
    let ground = Ground::load(dir)?;
    let depth = if rehash { Rehash } else { Content };
    let manifests = for_each_shard(ground.run.shards, threads, |i| {
        Ok(ground.check(dir, i, depth)?.0)
    })?;
    Ok(VerifyReport {
        shards: ground.run.shards,
        total_entries: ground.run.total_entries,
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
    use crate::{CsrMap, RunSummary, ShardSet};
    use kron::KronProduct;
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

    /// Rewrite shard `shard` through its own sink with its rows as `edit`
    /// leaves them, and re-derive the manifest's hash and size, so decode
    /// and checksum still pass. `edit` gets the rows and the shard's first
    /// vertex; its result is returned.
    fn forge<R>(dir: &Path, shard: usize, edit: impl FnOnce(&mut [Vec<u64>], u64) -> R) -> R {
        let mut m = load_manifest(dir, shard).unwrap();
        let name = m.file.clone().unwrap();
        let reader = CsrMap::open(&dir.join(&name)).unwrap();
        let mut rows: Vec<Vec<u64>> = m
            .vertices
            .clone()
            .map(|p| reader.row(p).unwrap().to_vec())
            .collect();
        let lo = m.vertices.start;
        let out = edit(&mut rows, lo);
        let lengths = rows.iter().map(|row| row.len() as u64);
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
        out
    }

    /// [`forge`] with one column of a multi-entry row moved into the gap
    /// after it — the row stays strictly ascending and as long — so
    /// decode, length, order and checksum all still pass. Returns the
    /// row and the position changed.
    fn forge_row(dir: &Path, shard: usize) -> (u64, usize) {
        forge(dir, shard, |rows, lo| {
            let (r, at) = rows
                .iter()
                .enumerate()
                .find_map(|(r, row)| Some((r, row.windows(2).position(|w| w[0] + 1 < w[1])?)))
                .expect("a row with a gap");
            rows[r][at] += 1;
            (lo + r as u64, at)
        })
    }

    /// [`forge`] with one column moved from its row to another row of
    /// the shard that lacks it: both rows stay strictly ascending and the
    /// shard keeps its entry count and header, but the two rows' lengths
    /// are off by one. Returns the first of the two rows, its stored
    /// length and its closed-form length.
    fn forge_move(dir: &Path, shard: usize) -> (u64, usize, usize) {
        forge(dir, shard, |rows, lo| {
            let (from, to, q) = (0..rows.len())
                .find_map(|from| {
                    rows[from].iter().find_map(|&q| {
                        let lacks =
                            |to: &usize| *to != from && rows[*to].binary_search(&q).is_err();
                        Some((from, (0..rows.len()).find(lacks)?, q))
                    })
                })
                .expect("a column another row lacks");
            let first = from.min(to);
            let want = rows[first].len();
            rows[from].retain(|&c| c != q);
            let at = rows[to].binary_search(&q).unwrap_err();
            rows[to].insert(at, q);
            (lo + first as u64, rows[first].len(), want)
        })
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

    #[test]
    fn a_column_moved_to_another_row_fails_every_content_level() {
        for format in [OutputFormat::Csr, OutputFormat::Csr2] {
            let dir = tmpdir(&format!("moved_{}", format.as_str()));
            let mut cfg = StreamConfig::new(&dir, format);
            cfg.shards = 3;
            stream_product(&product(), &cfg).unwrap();
            let (row, got, want) = forge_move(&dir, 1);
            // the header check cannot see it…
            ShardSet::open(&dir).unwrap();
            // …every check that reads the rows must
            for err in [
                ShardSet::open_verified(&dir).unwrap_err(),
                verify_shards(&dir, false).unwrap_err(),
                verify_shards(&dir, true).unwrap_err(),
            ] {
                assert!(matches!(err, StreamError::Shard(1, _)), "{err}");
                let msg = err.to_string();
                assert!(
                    msg.contains(&format!(
                        "row {row} has {got} entries, closed form says {want}"
                    )),
                    "{msg}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn every_reader_refuses_a_run_total_the_factors_contradict() {
        let dir = tmpdir("bad_total");
        let c = product();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 3;
        stream_product(&c, &cfg).unwrap();
        let mut run = RunSummary::load(&dir).unwrap();
        run.total_entries += 1;
        write_json_atomic(&dir, crate::RUN_FILE, &run.to_json()).unwrap();
        let want = format!(
            "run.json: total_entries is {}, the factors' product has {}",
            c.nnz() + 1,
            c.nnz()
        );
        for err in [
            verify_shards(&dir, false).unwrap_err(),
            ShardSet::open(&dir).unwrap_err(),
            crate::compact_run(&dir).unwrap_err(),
        ] {
            assert!(matches!(err, StreamError::Manifest(_)), "{err}");
            assert!(err.to_string().contains(&want), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! In-place conversion of a v1 (`csr`) run directory to v2 (`csr2`).
//!
//! `kron compact <DIR>` re-encodes every shard's raw `u64` column array
//! as the varint delta-encoded v2 stream, rewrites each manifest
//! (`format`, `version`, `file`, `file_bytes`), deletes the v1 artifact,
//! and finally rewrites `run.json`. The closed-form statistics and the
//! order-independent content checksum are **preserved verbatim** — the
//! entries are identical, so [`crate::StreamHash`] is too, and a
//! checksum-verified open of the compacted run proves the conversion
//! byte-exact.
//!
//! The conversion is crash-safe and idempotent: each shard commits its
//! v2 artifact atomically (`.tmp` + rename) *before* its manifest is
//! rewritten, and `run.json` flips to `csr2` only after every shard has.
//! Re-running `compact` on a partially converted directory finishes the
//! job — already-converted shards are skipped (and their stale v1
//! artifact, if a crash left one behind, is removed).

use crate::csr::file_size_checked;
use crate::driver::RUN_FILE;
use crate::manifest::{manifest_name, write_json_atomic, OutputFormat};
use crate::open::{Depth, Ground};
use crate::sink::{Csr2Sink, EdgeSink};
use crate::StreamError;
use std::path::Path;

/// Outcome of [`compact_run`].
#[derive(Clone, Debug)]
pub struct CompactReport {
    /// Shards in the run.
    pub shards: usize,
    /// Shards converted by this invocation.
    pub converted: usize,
    /// Shards that were already csr2 (a resumed conversion).
    pub skipped: usize,
    /// Artifact bytes in v1 form (closed-form size for shards already
    /// converted before this invocation).
    pub bytes_before: u64,
    /// Artifact bytes in v2 form.
    pub bytes_after: u64,
}

impl CompactReport {
    /// Compression ratio `v1 bytes / v2 bytes` (how many times smaller
    /// the run became); 1.0 for an empty run.
    pub fn ratio(&self) -> f64 {
        if self.bytes_after == 0 {
            1.0
        } else {
            self.bytes_before as f64 / self.bytes_after as f64
        }
    }
}

/// Convert a v1 (`csr`) run directory to v2 (`csr2`) in place.
///
/// Safe to re-run: already-converted shards are skipped, a crashed
/// conversion resumes where it stopped, and a fully-csr2 directory is a
/// no-op that just reports sizes.
///
/// # Errors
///
/// [`StreamError::Config`] when the run's format is not `csr` or `csr2`
/// (a count run has nothing to compact);
/// [`StreamError::Shard`] naming the first shard whose artifact is
/// missing, fails the header check of every open (manifest against its
/// plan entry, artifact header and size against the manifest) or fails
/// to convert; any error reading `run.json` or the factor copies.
pub fn compact_run(dir: &Path) -> Result<CompactReport, StreamError> {
    let mut ground = Ground::load(dir)?;
    if !ground.run.format.is_csr() {
        return Err(StreamError::Config(format!(
            "{}: run format is {:?}; only csr runs can be compacted",
            dir.display(),
            ground.run.format.as_str()
        )));
    }

    let mut report = CompactReport {
        shards: ground.run.shards,
        converted: 0,
        skipped: 0,
        bytes_before: 0,
        bytes_after: 0,
    };
    for index in 0..ground.run.shards {
        let (m, reader) = ground.check(dir, index, Depth::Header)?;
        let reader = reader.expect("a csr run admits csr shards only");
        let fail = |msg: String| StreamError::Shard(index, msg);
        let v1_bytes = reader
            .nnz()
            .checked_mul(8)
            .and_then(|cols| file_size_checked(reader.num_rows(), cols))
            .ok_or_else(|| fail("shard dimensions overflow".into()))?;
        report.bytes_before += v1_bytes;
        if reader.is_v2() {
            // Already converted (this run resumed). A crash between
            // manifest rewrite and v1 deletion can leave the old artifact
            // behind; finish the job.
            if let Some(old) = OutputFormat::Csr.artifact_name(index) {
                let _ = std::fs::remove_file(dir.join(old));
            }
            report.skipped += 1;
            report.bytes_after += m.file_bytes;
            continue;
        }
        let name2 = OutputFormat::Csr2
            .artifact_name(index)
            .expect("csr2 names artifacts");
        // Row lengths come straight from the v1 offset table (the bound is
        // exact there): the conversion copies the rows the header check
        // admitted as they are.
        let lengths = m
            .vertices
            .clone()
            .map(|p| reader.row_len_bound(p).unwrap_or(0) as u64);
        let mut sink = Csr2Sink::create(dir, &name2, reader.vertex_lo(), lengths)
            .map_err(|e| fail(e.to_string()))?;
        // A row is already a run (admission proved the header covers
        // `m.vertices`), and the sink bounds its own scratch however long
        // the row.
        let mut buf = Vec::new();
        for p in m.vertices.clone() {
            let row = reader.row_into(p, &mut buf).unwrap_or_default();
            sink.push_run(p, row).map_err(|e| fail(e.to_string()))?;
        }
        let (file, bytes) = sink
            .finish()
            .map_err(|e| fail(e.to_string()))?
            .expect("csr2 sink commits a file");
        // Entries are identical, so the stream hash and every closed-form
        // statistic carry over untouched.
        let mut m2 = m.clone();
        m2.format = OutputFormat::Csr2;
        m2.file = Some(file);
        m2.file_bytes = bytes;
        write_json_atomic(dir, &manifest_name(index), &m2.to_json())
            .map_err(|e| fail(e.to_string()))?;
        // admission proved the v1 manifest names a file
        let old = m.file.as_deref().unwrap_or_default();
        std::fs::remove_file(dir.join(old)).map_err(|e| fail(format!("{old}: {e}")))?;
        report.converted += 1;
        report.bytes_after += bytes;
    }

    if ground.run.format != OutputFormat::Csr2 {
        ground.run.format = OutputFormat::Csr2;
        write_json_atomic(dir, RUN_FILE, &ground.run.to_json())
            .map_err(|e| StreamError::Io(e.to_string()))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{load_manifest, stream_product, StreamConfig};
    use crate::{verify_shards, RunSummary, ShardSet};
    use kron::KronProduct;
    use kron_graph::Graph;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kron_compact_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn product() -> KronProduct {
        let a = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)]);
        let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0)]);
        KronProduct::new(a, b)
    }

    #[test]
    fn compact_converts_in_place_preserving_checksums_and_answers() {
        let dir = tmpdir("roundtrip");
        let c = product();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 3;
        stream_product(&c, &cfg).unwrap();
        let before: Vec<_> = (0..3).map(|i| load_manifest(&dir, i).unwrap()).collect();

        let report = compact_run(&dir).unwrap();
        assert_eq!(report.converted, 3);
        assert_eq!(report.skipped, 0);
        assert!(
            report.bytes_after < report.bytes_before,
            "compaction must shrink: {report:?}"
        );
        assert!(report.ratio() > 1.0);

        // manifests: format flipped, stats and checksums untouched
        for (i, old) in before.iter().enumerate() {
            let m = load_manifest(&dir, i).unwrap();
            assert_eq!(m.format, OutputFormat::Csr2);
            assert_eq!(m.hash, old.hash, "shard {i} checksum must be preserved");
            assert_eq!(m.entries, old.entries);
            assert_eq!(m.triangle_sum, old.triangle_sum);
            assert!(!dir.join(old.file.as_deref().unwrap()).exists());
        }
        // the compacted run passes full verification and answers rows
        verify_shards(&dir, true).unwrap();
        let set = ShardSet::open_verified(&dir).unwrap();
        assert_eq!(set.run().format, OutputFormat::Csr2);
        for v in 0..c.num_vertices() {
            assert_eq!(&*set.row(v).unwrap(), c.neighbors(v).as_slice(), "row {v}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_is_idempotent_and_resumes_partial_conversions() {
        let dir = tmpdir("resume");
        let c = product();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 3;
        stream_product(&c, &cfg).unwrap();
        compact_run(&dir).unwrap();
        // a second run is a no-op that still reports sizes
        let again = compact_run(&dir).unwrap();
        assert_eq!(again.converted, 0);
        assert_eq!(again.skipped, 3);
        assert!(again.bytes_before > again.bytes_after);

        // simulate a crash mid-conversion: regenerate as csr, convert,
        // then put shard 1's *old* state back (csr manifest + artifact)
        let dir2 = tmpdir("resume_partial");
        let mut cfg2 = StreamConfig::new(&dir2, OutputFormat::Csr);
        cfg2.shards = 3;
        stream_product(&c, &cfg2).unwrap();
        let m1 = load_manifest(&dir2, 1).unwrap();
        let v1_name = m1.file.as_deref().unwrap().to_string();
        let v1_bytes = std::fs::read(dir2.join(&v1_name)).unwrap();
        compact_run(&dir2).unwrap();
        std::fs::write(dir2.join(&v1_name), &v1_bytes).unwrap();
        write_json_atomic(&dir2, &manifest_name(1), &m1.to_json()).unwrap();
        // run.json already says csr2, but shard 1 is back to csr — the
        // rerun must convert exactly that one and heal the directory
        let heal = compact_run(&dir2).unwrap();
        assert_eq!(heal.converted, 1);
        assert_eq!(heal.skipped, 2);
        verify_shards(&dir2, false).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn verify_accepts_the_mid_compaction_mix_and_nothing_else() {
        // The reverse splice of the resume test: run.json still says csr,
        // shard 0 is already csr2 — what a `kron compact` killed after its
        // first shard leaves behind.
        let c = product();
        let streamed = |name: &str, format| {
            let dir = tmpdir(name);
            let mut cfg = StreamConfig::new(&dir, format);
            cfg.shards = 3;
            stream_product(&c, &cfg).unwrap();
            dir
        };
        let dir = streamed("mixed", OutputFormat::Csr);
        let donor = streamed("mixed_donor", OutputFormat::Csr);
        compact_run(&donor).unwrap();
        let splice = |from: &Path, index: usize| {
            let m = load_manifest(from, index).unwrap();
            write_json_atomic(&dir, &manifest_name(index), &m.to_json()).unwrap();
            m.file.map(|name| {
                std::fs::copy(from.join(&name), dir.join(&name)).unwrap();
                dir.join(name)
            })
        };
        let v2 = splice(&donor, 0).unwrap();
        std::fs::remove_file(dir.join("shard_00000.csr")).unwrap();
        assert_eq!(RunSummary::load(&dir).unwrap().format, OutputFormat::Csr);
        for rehash in [false, true] {
            let report = verify_shards(&dir, rehash).unwrap();
            assert_eq!(report.total_entries, c.nnz());
        }
        ShardSet::open_verified(&dir).unwrap();

        // a flipped byte in either format's artifact still fails, on the
        // shard it is in (shard 1 is still v1)
        let v1 = dir.join(load_manifest(&dir, 1).unwrap().file.unwrap());
        for (shard, path) in [(0, &v2), (1, &v1)] {
            let good = std::fs::read(path).unwrap();
            let mut bad = good.clone();
            *bad.last_mut().unwrap() ^= 1;
            std::fs::write(path, &bad).unwrap();
            for rehash in [false, true] {
                let err = verify_shards(&dir, rehash).unwrap_err();
                assert!(
                    matches!(err, StreamError::Shard(s, _) if s == shard),
                    "{err}"
                );
            }
            std::fs::write(path, &good).unwrap();
        }

        // …and the mix stops at csr/csr2: a count manifest in a csr run
        // is refused by verify, open and compact alike
        let count = streamed("mixed_count", OutputFormat::Count);
        splice(&count, 2);
        let errs = [
            verify_shards(&dir, false).unwrap_err(),
            ShardSet::open(&dir).unwrap_err(),
            compact_run(&dir).unwrap_err(),
        ];
        for err in errs {
            assert!(matches!(err, StreamError::Shard(2, _)), "{err}");
            assert!(err.to_string().contains("manifest format count"), "{err}");
        }
        for d in [dir, donor, count] {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn compact_rejects_non_csr_runs() {
        let dir = tmpdir("count");
        let c = product();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Count);
        cfg.shards = 2;
        stream_product(&c, &cfg).unwrap();
        let err = compact_run(&dir).unwrap_err();
        assert!(matches!(err, StreamError::Config(_)), "{err}");
        assert!(err.to_string().contains("only csr runs"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_run_or_manifest_naming_edges_is_refused_naming_the_file() {
        // `edges` was a format once; a directory that still says so is
        // refused like any unknown format, by every reader of a run
        let c = product();
        for file in [RUN_FILE.to_string(), manifest_name(1)] {
            let dir = tmpdir(&format!("says_edges_{file}"));
            let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
            cfg.shards = 3;
            stream_product(&c, &cfg).unwrap();
            let path = dir.join(&file);
            let text = std::fs::read_to_string(&path).unwrap();
            let edges = text.replace("\"format\":\"csr\"", "\"format\":\"edges\"");
            assert_ne!(edges, text);
            std::fs::write(&path, edges).unwrap();
            let errs = [
                ShardSet::open(&dir).unwrap_err(),
                verify_shards(&dir, false).unwrap_err(),
                compact_run(&dir).unwrap_err(),
            ];
            for err in errs {
                let msg = err.to_string();
                assert!(matches!(err, StreamError::Manifest(_)), "{msg}");
                assert!(msg.contains(&file), "{file}: {msg}");
                assert!(
                    msg.contains("unknown format \"edges\" (expected csr, csr2, or count)"),
                    "{msg}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

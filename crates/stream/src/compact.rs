//! `kron compact <DIR>`: make a run directory a `csr2` run in place.
//!
//! A run is fixed by its two factors, and every run directory carries
//! copies of them, so compaction converts nothing: it re-streams the run
//! as `csr2` from its own factor copies, with resume ([`stream_product`]).
//! That deletes the v1 (`csr`) artifacts, keeps every `csr2` shard that
//! passes the header check, regenerates the rest on every core and writes
//! `run.json` last. No v1 row is read, so a corrupt or missing v1
//! artifact is regenerated like any other shard.
//!
//! The result is byte for byte what `kron stream --format csr2` writes
//! from the same factors — artifacts, manifests and factor copies — and
//! `run.json` differs only in its informative fields (`threads`,
//! `elapsed_secs`, `resumed_shards`). A compaction killed midway leaves a
//! directory that no reader opens, as a killed `kron stream` does, until
//! `kron compact` runs again and finishes it.

use crate::csr::file_size_checked;
use crate::driver::{load_manifest, stream_product, StreamConfig};
use crate::manifest::OutputFormat;
use crate::open::Ground;
use crate::plan::ShardSpec;
use crate::StreamError;
use std::path::Path;

/// Outcome of [`compact_run`].
#[derive(Clone, Debug)]
pub struct CompactReport {
    /// Shards in the run.
    pub shards: usize,
    /// Shards regenerated as csr2 by this invocation.
    pub converted: usize,
    /// Shards kept because they were already csr2 (a resumed compaction).
    pub skipped: usize,
    /// Artifact bytes in v1 form: the closed-form size of every shard's
    /// v1 artifact, whatever is on disk.
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

/// Make a `csr` or `csr2` run directory a `csr2` run in place, by
/// re-streaming it from its own factor copies with resume.
///
/// Safe to re-run: csr2 shards that pass the header check are kept, an
/// interrupted compaction resumes where it stopped, and on a csr2 run
/// only `run.json`'s informative fields change.
///
/// # Errors
///
/// [`StreamError::Config`] when the run's format is not `csr` or `csr2`
/// (a count run has nothing to compact); any error reading `run.json` or
/// the factor copies ([`crate::ShardSet::open`] refuses the same); any
/// error [`stream_product`] meets regenerating a shard or writing the
/// run. A missing or corrupt v1 artifact is no error: it is regenerated.
pub fn compact_run(dir: &Path) -> Result<CompactReport, StreamError> {
    let ground = Ground::load(dir)?;
    if !ground.run.format.is_csr() {
        return Err(StreamError::Config(format!(
            "{}: run format is {:?}; only csr runs can be compacted",
            dir.display(),
            ground.run.format.as_str()
        )));
    }
    let bytes_before = ground
        .plan
        .iter()
        .map(|spec| v1_bytes(spec).unwrap_or(u64::MAX))
        .fold(0, u64::saturating_add);
    let cfg = StreamConfig {
        out_dir: dir.to_path_buf(),
        shards: ground.run.shards,
        format: OutputFormat::Csr2,
        threads: 0,
        resume: true,
    };
    let run = stream_product(&ground.product, &cfg)?;
    let bytes_after = (0..run.shards)
        .map(|i| load_manifest(dir, i).map(|m| m.file_bytes))
        .sum::<Result<u64, _>>()?;
    Ok(CompactReport {
        shards: run.shards,
        converted: run.shards - run.resumed_shards,
        skipped: run.resumed_shards,
        bytes_before,
        bytes_after,
    })
}

/// The size of a shard's v1 artifact: header, `num_rows + 1` offsets and
/// eight bytes an entry. `None` past `u64`.
fn v1_bytes(spec: &ShardSpec) -> Option<u64> {
    let stats = &spec.stats;
    let cols = u64::try_from(stats.nnz).ok()?.checked_mul(8)?;
    file_size_checked(stats.vertices.end - stats.vertices.start, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RUN_FILE;
    use crate::manifest::{manifest_name, write_json_atomic};
    use crate::{verify_shards, RunSummary, ShardSet};
    use kron::KronProduct;
    use kron_graph::Graph;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

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

    fn streamed(c: &KronProduct, name: &str, format: OutputFormat, shards: usize) -> PathBuf {
        let dir = tmpdir(name);
        let mut cfg = StreamConfig::new(&dir, format);
        cfg.shards = shards;
        stream_product(c, &cfg).unwrap();
        dir
    }

    /// Every file of a run directory but `run.json`, by name, and
    /// `run.json` with its informative fields cleared: what a compacted
    /// run must share with a fresh csr2 stream of its factors.
    fn snapshot(dir: &Path) -> (BTreeMap<String, Vec<u8>>, RunSummary) {
        let files = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().into_string().unwrap();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .filter(|(name, _)| name != RUN_FILE)
            .collect();
        let mut run = RunSummary::load(dir).unwrap();
        (run.threads, run.elapsed_secs, run.resumed_shards) = (0, 0.0, 0);
        (files, run)
    }

    #[test]
    fn compact_converts_in_place_preserving_checksums_and_answers() {
        let c = product();
        let dir = streamed(&c, "roundtrip", OutputFormat::Csr, 3);
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
    fn a_compacted_v1_run_is_byte_identical_to_a_fresh_csr2_stream() {
        let c = product();
        // 8 shards over 6 left-factor rows plans empty shards too
        for shards in [1, 3, 8] {
            let v1 = streamed(&c, &format!("same_v1_{shards}"), OutputFormat::Csr, shards);
            let v2 = streamed(&c, &format!("same_v2_{shards}"), OutputFormat::Csr2, shards);
            let size = |dir: &Path| -> u64 {
                (0..shards)
                    .map(|i| load_manifest(dir, i).unwrap().file_bytes)
                    .sum()
            };
            let (v1_bytes, v2_bytes) = (size(&v1), size(&v2));
            let report = compact_run(&v1).unwrap();
            assert_eq!((report.converted, report.skipped), (shards, 0));
            assert_eq!(
                (report.bytes_before, report.bytes_after),
                (v1_bytes, v2_bytes)
            );
            assert_eq!(snapshot(&v1), snapshot(&v2), "{shards} shards");
            std::fs::remove_dir_all(&v1).ok();
            std::fs::remove_dir_all(&v2).ok();
        }
    }

    #[test]
    fn a_corrupt_or_missing_v1_artifact_is_regenerated_not_carried_over() {
        let c = product();
        let dir = streamed(&c, "corrupt", OutputFormat::Csr, 3);
        let fresh = streamed(&c, "corrupt_fresh", OutputFormat::Csr2, 3);
        // one flipped column in shard 1 (the low bit of its last word's
        // top byte), and shard 2's artifact gone
        let artifact = |i| dir.join(load_manifest(&dir, i).unwrap().file.unwrap());
        let mut bytes = std::fs::read(artifact(1)).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(artifact(1), bytes).unwrap();
        std::fs::remove_file(artifact(2)).unwrap();
        let err = verify_shards(&dir, true).unwrap_err();
        assert!(matches!(err, StreamError::Shard(1, _)), "{err}");

        let report = compact_run(&dir).unwrap();
        assert_eq!((report.converted, report.skipped), (3, 0));
        verify_shards(&dir, true).unwrap();
        assert_eq!(snapshot(&dir), snapshot(&fresh));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&fresh).ok();
    }

    #[test]
    fn compact_is_idempotent_and_resumes_partial_conversions() {
        let c = product();
        let fresh = streamed(&c, "resume_fresh", OutputFormat::Csr2, 4);
        let dir = streamed(&c, "resume", OutputFormat::Csr, 4);
        let v1_run = std::fs::read(dir.join(RUN_FILE)).unwrap();
        let v1: Vec<_> = (0..4).map(|i| load_manifest(&dir, i).unwrap()).collect();
        compact_run(&dir).unwrap();
        // a second run keeps every shard and still reports sizes
        let again = compact_run(&dir).unwrap();
        assert_eq!((again.converted, again.skipped), (0, 4));
        assert!(again.bytes_before > again.bytes_after);
        assert_eq!(snapshot(&dir), snapshot(&fresh));

        // What a compaction killed after shards 0 and 2 leaves: every v1
        // artifact deleted, shards 1 and 3 with their v1 manifest and no
        // artifact, run.json still csr. No reader accepts it…
        for i in [1, 3] {
            let m = load_manifest(&dir, i).unwrap();
            std::fs::remove_file(dir.join(m.file.unwrap())).unwrap();
            write_json_atomic(&dir, &manifest_name(i), &v1[i].to_json()).unwrap();
        }
        std::fs::write(dir.join(RUN_FILE), &v1_run).unwrap();
        for err in [
            verify_shards(&dir, false).unwrap_err(),
            ShardSet::open(&dir).unwrap_err(),
        ] {
            assert!(matches!(err, StreamError::Shard(0, _)), "{err}");
        }
        // …and the rerun regenerates exactly those two
        let heal = compact_run(&dir).unwrap();
        assert_eq!((heal.converted, heal.skipped), (2, 2));
        assert_eq!(snapshot(&dir), snapshot(&fresh));
        verify_shards(&dir, true).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&fresh).ok();
    }

    #[test]
    fn every_reader_refuses_the_mid_compaction_mix_and_compact_finishes_it() {
        // What a conversion killed after its first shard left behind:
        // run.json still says csr, shard 0 is already csr2.
        let c = product();
        let dir = streamed(&c, "mixed", OutputFormat::Csr, 3);
        let donor = streamed(&c, "mixed_donor", OutputFormat::Csr2, 3);
        let splice = |to: &Path, from: &Path, index: usize| {
            let m = load_manifest(from, index).unwrap();
            write_json_atomic(to, &manifest_name(index), &m.to_json()).unwrap();
            if let Some(name) = m.file {
                std::fs::copy(from.join(&name), to.join(&name)).unwrap();
            }
        };
        splice(&dir, &donor, 0);
        std::fs::remove_file(dir.join("shard_00000.csr")).unwrap();
        assert_eq!(RunSummary::load(&dir).unwrap().format, OutputFormat::Csr);
        let refusals = |dir: &Path| {
            [
                verify_shards(dir, false).unwrap_err(),
                verify_shards(dir, true).unwrap_err(),
                ShardSet::open(dir).unwrap_err(),
                ShardSet::open_verified(dir).unwrap_err(),
            ]
        };
        for err in refusals(&dir) {
            assert!(matches!(err, StreamError::Shard(0, _)), "{err}");
            assert!(
                err.to_string()
                    .contains("manifest format csr2 has no place in a csr run"),
                "{err}"
            );
        }
        // compact keeps the csr2 shard and regenerates the other two, to
        // the bytes of a fresh csr2 stream
        let report = compact_run(&dir).unwrap();
        assert_eq!((report.converted, report.skipped), (2, 1));
        assert_eq!(snapshot(&dir), snapshot(&donor));

        // a count manifest has no place in a csr run either
        let other = streamed(&c, "mixed_other", OutputFormat::Csr, 3);
        let count = streamed(&c, "mixed_count", OutputFormat::Count, 3);
        splice(&other, &count, 2);
        for err in refusals(&other) {
            assert!(matches!(err, StreamError::Shard(2, _)), "{err}");
            assert!(err.to_string().contains("manifest format count"), "{err}");
        }
        assert_eq!(compact_run(&other).unwrap().converted, 3);
        assert_eq!(snapshot(&other), snapshot(&donor));
        for d in [dir, donor, other, count] {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn compact_rejects_non_csr_runs() {
        let c = product();
        let dir = streamed(&c, "count", OutputFormat::Count, 2);
        let err = compact_run(&dir).unwrap_err();
        assert!(matches!(err, StreamError::Config(_)), "{err}");
        assert!(err.to_string().contains("only csr runs"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_run_or_manifest_naming_edges_is_refused_naming_the_file() {
        // `edges` was a format once; a directory that still says so is
        // refused like any unknown format, by every reader of a run. A
        // run.json saying so is refused by compact too; a shard manifest
        // saying so is a shard compact regenerates.
        let c = product();
        for file in [RUN_FILE.to_string(), manifest_name(1)] {
            let dir = streamed(&c, &format!("says_edges_{file}"), OutputFormat::Csr, 3);
            let path = dir.join(&file);
            let text = std::fs::read_to_string(&path).unwrap();
            let edges = text.replace("\"format\":\"csr\"", "\"format\":\"edges\"");
            assert_ne!(edges, text);
            std::fs::write(&path, edges).unwrap();
            let mut errs = vec![
                ShardSet::open(&dir).unwrap_err(),
                verify_shards(&dir, false).unwrap_err(),
            ];
            if file == RUN_FILE {
                errs.push(compact_run(&dir).unwrap_err());
            }
            for err in errs {
                let msg = err.to_string();
                assert!(matches!(err, StreamError::Manifest(_)), "{msg}");
                assert!(msg.contains(&file), "{file}: {msg}");
                assert!(
                    msg.contains("unknown format \"edges\" (expected csr, csr2, or count)"),
                    "{msg}"
                );
            }
            if file != RUN_FILE {
                assert_eq!(compact_run(&dir).unwrap().converted, 3);
                verify_shards(&dir, true).unwrap();
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

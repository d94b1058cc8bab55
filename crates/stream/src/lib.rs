//! # kron-stream — sharded, validated edge-stream generation
//!
//! The paper's headline capability is generating trillion-edge Kronecker
//! products as a *communication-free stream* from square-root-sized
//! factors, with exact statistics available per partition for validation.
//! `kron` (the core crate) provides the closed-form math and an in-memory
//! kernel; this crate turns the implicit product into **durable, queryable
//! artifacts**:
//!
//! * [`ShardPlan`] — partitions the edge space into contiguous left-factor
//!   row blocks, balanced by entry count (`nnz`), so each shard streams
//!   communication-free;
//! * [`EdgeSink`] — where a shard's entries go, a **run** (consecutive
//!   ascending columns of one product row) at a time: the one streaming
//!   on-disk CSR writer ([`CsrWriter`]), as v1 ([`CsrSink`], raw `u64`
//!   columns) or v2 ([`Csr2Sink`], varint delta-encoded, roughly 4×
//!   smaller on sorted rows), or a statistics-only counter
//!   ([`CountSink`]); [`CsrMap`] is the one mmap-backed reader of both,
//!   handing out every row as a `Cow<[u64]>`; [`compact_run`] makes a v1
//!   run v2 in place by re-streaming it from its own factor copies;
//! * [`ShardManifest`] — per-shard JSON recording the shard's range, entry
//!   count, closed-form checksums (degree sum, triangle-participation sum)
//!   and an order-independent content hash, so every shard is
//!   **independently validatable** and a partial run **resumes** by
//!   skipping completed shards;
//! * [`stream_product`] — the concurrent driver; [`verify_shards`] — the
//!   independent validator; both, and every [`ShardSet`] open, run their
//!   shards in parallel through one loop that names the lowest-index
//!   failing shard whatever the core count;
//! * [`ShardSet`] — opens a completed CSR run for **in-place querying**:
//!   every shard is validated and memory-mapped once, and product vertices
//!   route to their owning shard by the plan's contiguous vertex ranges.
//!   `kron-serve` builds its point-query engine on top of this.
//!
//! ## Quickstart
//!
//! ```
//! use kron::KronProduct;
//! use kron_graph::Graph;
//! use kron_stream::{stream_product, verify_shards, OutputFormat, StreamConfig};
//!
//! let a = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
//! let c = KronProduct::new(a.clone(), a);
//! let dir = std::env::temp_dir().join(format!("kron_stream_doc_{}", std::process::id()));
//! let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
//! cfg.shards = 2;
//! let run = stream_product(&c, &cfg).unwrap();
//! assert_eq!(run.total_entries, c.nnz());
//! let report = verify_shards(&dir, true).unwrap();
//! assert_eq!(report.total_entries, c.nnz());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

// Shards are memory-mapped and the server multiplexes its sockets with
// poll(2); every crate that reads or serves a run depends on this one.
#[cfg(not(unix))]
compile_error!("kron-stream requires a unix target (mmap(2), poll(2))");

mod compact;
pub mod csr;
mod driver;
pub mod json;
mod manifest;
pub mod mmap;
mod open;
mod plan;
mod sink;
mod verify;

pub use compact::{compact_run, CompactReport};
pub use csr::{decode_row_vd, encode_row_vd, CsrMap};
pub use driver::{
    load_factors, load_manifest, run_shard, stream_product, StreamConfig, FACTOR_A_FILE,
    FACTOR_B_FILE, RUN_FILE,
};
pub use manifest::{
    manifest_name, mix, read_json, OutputFormat, RunSummary, SeededMix, ShardManifest, SplitMix,
    StreamHash,
};
pub use open::{OpenShard, ShardSet};
pub use plan::{ShardPlan, ShardSpec, MAX_SHARDS};
pub use sink::{CountSink, Csr2Sink, CsrSink, CsrWriter, EdgeSink};
pub use verify::{verify_shards, VerifyReport};

/// Errors of the streaming subsystem.
#[derive(Clone, Debug)]
pub enum StreamError {
    /// Invalid configuration.
    Config(String),
    /// I/O failure outside any particular shard.
    Io(String),
    /// Manifest/summary parse or cross-check failure.
    Manifest(String),
    /// A shard failed to generate or validate.
    Shard(usize, String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Config(m) => write!(f, "config error: {m}"),
            StreamError::Io(m) => write!(f, "io error: {m}"),
            StreamError::Manifest(m) => write!(f, "manifest error: {m}"),
            StreamError::Shard(i, m) => write!(f, "shard {i}: {m}"),
        }
    }
}

impl std::error::Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;
    use kron::KronProduct;
    use kron_gen::deterministic::clique;
    use kron_graph::Graph;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kron_stream_lib_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn web_pair() -> KronProduct {
        // small loopy pair exercising every statistic
        let a = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)]);
        let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0)]);
        KronProduct::new(a, b)
    }

    #[test]
    fn end_to_end_csr_format_verifies_and_roundtrips() {
        let dir = tmpdir("csr");
        let c = web_pair();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 3;
        stream_product(&c, &cfg).unwrap();
        verify_shards(&dir, true).unwrap();
        // mmap readers reproduce every adjacency row of the product
        for shard in 0..3 {
            let m = load_manifest(&dir, shard).unwrap();
            let r = CsrMap::open(&dir.join(m.file.as_deref().unwrap())).unwrap();
            for p in m.vertices.clone() {
                assert_eq!(&*r.row(p).unwrap(), c.neighbors(p).as_slice(), "row {p}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn count_format_needs_no_files() {
        let dir = tmpdir("count");
        let c = KronProduct::new(clique(5), clique(4));
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Count);
        cfg.shards = 2;
        let run = stream_product(&c, &cfg).unwrap();
        assert_eq!(run.total_entries, c.nnz());
        let report = verify_shards(&dir, true).unwrap();
        assert_eq!(report.artifact_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_skips_completed_shards() {
        let dir = tmpdir("resume");
        let c = web_pair();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 5;
        stream_product(&c, &cfg).unwrap();
        // delete one shard's artifact: resume must redo exactly that one
        let victim = load_manifest(&dir, 2).unwrap();
        std::fs::remove_file(dir.join(victim.file.as_deref().unwrap())).unwrap();
        cfg.resume = true;
        let run = stream_product(&c, &cfg).unwrap();
        assert_eq!(run.resumed_shards, 4);
        verify_shards(&dir, true).unwrap();
        // without resume, everything regenerates
        cfg.resume = false;
        let run = stream_product(&c, &cfg).unwrap();
        assert_eq!(run.resumed_shards, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_regenerates_a_same_size_artifact_whose_header_lies() {
        for format in [OutputFormat::Csr, OutputFormat::Csr2] {
            let dir = tmpdir(&format!("resume_header_{}", format.as_str()));
            let c = web_pair();
            let mut cfg = StreamConfig::new(&dir, format);
            cfg.shards = 5;
            stream_product(&c, &cfg).unwrap();
            // flip a byte of shard 1's `vertex_lo` (header word 1): the
            // artifact keeps its size, its header no longer its manifest's
            let m = load_manifest(&dir, 1).unwrap();
            let path = dir.join(m.file.as_deref().unwrap());
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[8] ^= 1;
            std::fs::write(&path, &bytes).unwrap();
            cfg.resume = true;
            let run = stream_product(&c, &cfg).unwrap();
            assert_eq!(run.resumed_shards, cfg.shards - 1);
            verify_shards(&dir, true).unwrap();
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn verify_detects_artifact_tampering() {
        let dir = tmpdir("tamper");
        let c = web_pair();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr2);
        cfg.shards = 2;
        stream_product(&c, &cfg).unwrap();
        verify_shards(&dir, false).unwrap();
        // flip one bit inside shard 1's artifact
        let m = load_manifest(&dir, 1).unwrap();
        let path = dir.join(m.file.as_deref().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = verify_shards(&dir, false).unwrap_err();
        assert!(
            matches!(err, StreamError::Shard(1, _)),
            "expected shard 1 failure, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_detects_manifest_tampering() {
        let dir = tmpdir("tamper_manifest");
        let c = web_pair();
        let cfg = StreamConfig::new(&dir, OutputFormat::Count);
        stream_product(&c, &cfg).unwrap();
        // inflate a triangle sum in one manifest
        let path = dir.join(manifest_name(3));
        let text = std::fs::read_to_string(&path).unwrap();
        let mut m = ShardManifest::from_json(&json::Json::parse(&text).unwrap()).unwrap();
        m.triangle_sum += 1;
        std::fs::write(&path, m.to_json().to_string()).unwrap();
        assert!(verify_shards(&dir, false).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rerun_with_fewer_shards_removes_stale_artifacts() {
        let dir = tmpdir("shrink");
        let c = web_pair();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 8;
        stream_product(&c, &cfg).unwrap();
        assert!(dir.join("shard_00007.csr").exists());
        // shrink the plan: indices 4..8 must disappear from disk
        cfg.shards = 4;
        stream_product(&c, &cfg).unwrap();
        for stale in 4..8 {
            assert!(!dir.join(format!("shard_{stale:05}.csr")).exists());
            assert!(!dir.join(crate::manifest_name(stale)).exists());
        }
        verify_shards(&dir, true).unwrap();
        // switch format: old-format artifacts must disappear too, as must
        // one of a format this binary no longer writes
        std::fs::write(dir.join("shard_00000.edges"), [0u8; 16]).unwrap();
        cfg.format = OutputFormat::Csr2;
        stream_product(&c, &cfg).unwrap();
        assert!(!dir.join("shard_00000.edges").exists());
        for shard in 0..4 {
            assert!(!dir.join(format!("shard_{shard:05}.csr")).exists());
            assert!(dir.join(format!("shard_{shard:05}.csr2")).exists());
        }
        verify_shards(&dir, true).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_rejects_corrupt_shard_counts_without_panicking() {
        let dir = tmpdir("bad_counts");
        let c = web_pair();
        let cfg = StreamConfig::new(&dir, OutputFormat::Count);
        stream_product(&c, &cfg).unwrap();
        let run_path = dir.join(RUN_FILE);
        let good = std::fs::read_to_string(&run_path).unwrap();
        for bad in ["\"shards\":0", "\"shards\":99999999999"] {
            std::fs::write(&run_path, good.replace("\"shards\":8", bad)).unwrap();
            let err = verify_shards(&dir, false).unwrap_err();
            assert!(matches!(err, StreamError::Manifest(_)), "{err}");
        }
        // config-side bound too
        let mut big = StreamConfig::new(&dir, OutputFormat::Count);
        big.shards = MAX_SHARDS + 1;
        assert!(matches!(
            stream_product(&c, &big),
            Err(StreamError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Collects every entry it is handed, in arrival order.
    #[derive(Default)]
    struct Collect(Vec<(u64, u64)>);

    impl EdgeSink for Collect {
        fn push_run(&mut self, p: u64, cols: &[u64]) -> std::io::Result<()> {
            self.0.extend(cols.iter().map(|&q| (p, q)));
            Ok(())
        }

        fn finish(&mut self) -> std::io::Result<Option<(String, u64)>> {
            Ok(None)
        }
    }

    #[test]
    fn memory_sinks_concatenate_to_the_full_generator_loop() {
        let c = web_pair();
        let plan = ShardPlan::new(&c, 7);
        let mut all = Vec::new();
        for spec in plan.iter() {
            let mut sink = Collect::default();
            let m = run_shard(&c, spec, OutputFormat::Count, &mut sink).unwrap();
            assert_eq!(m.entries as usize, sink.0.len());
            all.extend(sink.0);
        }
        let mut expect: Vec<(u64, u64)> = c.adjacency_entries().collect();
        all.sort_unstable();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}

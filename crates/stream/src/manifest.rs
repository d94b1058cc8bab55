//! Shard manifests and the run summary: the validation metadata that makes
//! every shard independently checkable and a partial run resumable.

use crate::json::Json;
use kron::RowBlockStats;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::io;
use std::path::Path;

/// Artifact format of a stream run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputFormat {
    /// On-disk CSR, raw `u64` columns (see [`crate::csr`]).
    Csr,
    /// On-disk CSR v2, varint delta-encoded columns (see [`crate::csr`]).
    Csr2,
    /// No artifact — manifests and closed-form statistics only.
    Count,
}

impl OutputFormat {
    /// Canonical name, as written in manifests and accepted by the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            OutputFormat::Csr => "csr",
            OutputFormat::Csr2 => "csr2",
            OutputFormat::Count => "count",
        }
    }

    /// Parse a canonical name.
    ///
    /// # Errors
    ///
    /// A message naming the unrecognized format and the accepted set.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "csr" => Ok(OutputFormat::Csr),
            "csr2" => Ok(OutputFormat::Csr2),
            "count" => Ok(OutputFormat::Count),
            other => Err(format!(
                "unknown format {other:?} (expected csr, csr2, or count)"
            )),
        }
    }

    /// Artifact file name for one shard, `None` for [`OutputFormat::Count`].
    pub fn artifact_name(self, shard: usize) -> Option<String> {
        match self {
            OutputFormat::Csr => Some(format!("shard_{shard:05}.csr")),
            OutputFormat::Csr2 => Some(format!("shard_{shard:05}.csr2")),
            OutputFormat::Count => None,
        }
    }

    /// Whether this is one of the two queryable CSR formats.
    pub fn is_csr(self) -> bool {
        matches!(self, OutputFormat::Csr | OutputFormat::Csr2)
    }

    /// On-disk format version declared in manifests: 2 for [`Csr2`],
    /// 1 for everything else.
    ///
    /// [`Csr2`]: OutputFormat::Csr2
    pub fn version(self) -> u64 {
        match self {
            OutputFormat::Csr2 => 2,
            _ => 1,
        }
    }
}

/// Manifest file name for one shard.
pub fn manifest_name(shard: usize) -> String {
    format!("shard_{shard:05}.json")
}

/// Order-independent 128-bit-ish checksum of an entry stream, kept as two
/// 64-bit words (wrapping sum and xor of a mixed per-entry fingerprint).
///
/// Commutative combination means the checksum of a shard is the same
/// whether computed at generation time, from the artifact, or by
/// re-streaming — regardless of entry order.
///
/// The value is defined by [`StreamHash::update`], one entry at a time.
/// [`StreamHash::update_run`] computes the same value for a whole run,
/// in the widest vector tier the running CPU reports; since `+` and `^`
/// commute, every tier is bit-identical to the per-entry fold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamHash {
    /// Wrapping sum of entry fingerprints.
    pub sum: u64,
    /// Xor of entry fingerprints.
    pub xor: u64,
}

impl StreamHash {
    /// Fold one entry into the checksum: `h = mix(p ^ mix(q))` is added
    /// to `sum` and xored into `xor`. This is the checksum's definition.
    #[inline]
    pub fn update(&mut self, p: u64, q: u64) {
        let h = mix(p ^ mix(q));
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }

    /// Fold one run — columns `cols` of row `p` — into the checksum:
    /// [`StreamHash::update`] for every column, bit for bit. A run of at
    /// least 8 columns folds in AVX-512 when the CPU reports it (checked
    /// at run time); a shorter run, and every run on any other CPU, folds
    /// in scalar code.
    #[inline]
    pub fn update_run(&mut self, p: u64, cols: &[u64]) {
        let (sum, xor) = Tier::widest(cols.len()).fold(p, cols);
        self.sum = self.sum.wrapping_add(sum);
        self.xor ^= xor;
    }
}

/// A compilation of [`fold_run`]: the same source, built for
/// one set of CPU features. [`Tier::Avx512`] exists only once the
/// running CPU has reported its features, so [`Tier::fold`] never
/// executes an instruction the CPU lacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// The tier for a run of `len` columns: AVX-512 when the CPU reports
    /// it and the run fills its 8 `u64` lanes at least once, else scalar.
    #[inline]
    fn widest(len: usize) -> Tier {
        #[cfg(target_arch = "x86_64")]
        if len >= 8
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
        {
            return Tier::Avx512;
        }
        let _ = len; // read only on x86-64
        Tier::Scalar
    }

    /// `(Σ h, ⊕ h)` over the run, in this tier.
    #[inline]
    fn fold(self, p: u64, cols: &[u64]) -> (u64, u64) {
        match self {
            Tier::Scalar => fold_run(p, cols),
            // SAFETY: `Tier::Avx512` comes only from `widest`, after the
            // CPU reported `avx512f`, `avx512dq` and `avx512vl`.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { fold_avx512(p, cols) },
        }
    }
}

/// The run fold every tier compiles: the wrapping sum and the xor of
/// `mix(p ^ mix(q))` over `cols`. Plain code — the compiler vectorizes
/// it wherever the enclosing function enables the features.
#[inline(always)]
fn fold_run(p: u64, cols: &[u64]) -> (u64, u64) {
    cols.iter().fold((0, 0), |(sum, xor), &q| {
        let h = mix(p ^ mix(q));
        (sum.wrapping_add(h), xor ^ h)
    })
}

/// [`fold_run`] for AVX-512: eight lanes, with the 64-bit multiply of
/// `avx512dq`. A call needs an `unsafe` block whose caller has seen the
/// CPU report `avx512f`, `avx512dq` and `avx512vl`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn fold_avx512(p: u64, cols: &[u64]) -> (u64, u64) {
    fold_run(p, cols)
}

/// SplitMix64 finalizer — the per-entry fingerprint mixer, and the hash
/// behind [`SplitMix`].
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `BuildHasher` of maps keyed by vertex ids: one [`mix`] per `u64`
/// key, where the default SipHash costs several times that. It is
/// unkeyed, so keys chosen to collide would degrade a map to a list —
/// use it only for ids read off an artifact or bounded by the vertex
/// count, never for request strings.
pub type SplitMix = BuildHasherDefault<MixHasher>;

/// [`SplitMix`] keyed by a seed: a `u64` key hashes to `mix(seed ^ key)`.
/// For maps whose keys a client picks: [`SeededMix::random`] draws the
/// seed per map, so no key set chosen in advance collides in every map.
#[derive(Clone, Copy, Debug)]
pub struct SeededMix(u64);

impl SeededMix {
    /// A random nonzero seed (from the standard library's per-process
    /// hash keys), so the hash is never the unseeded `mix(key)`.
    pub fn random() -> SeededMix {
        SeededMix(std::collections::hash_map::RandomState::new().hash_one(0u64) | 1)
    }
}

impl BuildHasher for SeededMix {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher(self.0)
    }
}

/// The [`Hasher`] of [`SplitMix`]: folds each `u64` written through
/// [`mix`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = mix(self.0 ^ x);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-shard manifest: the shard's identity, its artifact, and both the
/// closed-form expected statistics and the observed stream checksum.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// Shard index.
    pub shard: usize,
    /// Left-factor rows `[lo, hi)`.
    pub rows: std::ops::Range<u32>,
    /// Product vertices `[lo, hi)`.
    pub vertices: std::ops::Range<u64>,
    /// Artifact format.
    pub format: OutputFormat,
    /// Artifact file name (relative to the run directory), if any.
    pub file: Option<String>,
    /// Artifact size in bytes (0 when no artifact).
    pub file_bytes: u64,
    /// Adjacency entries in the shard (observed == closed form).
    pub entries: u128,
    /// Self loops in the shard.
    pub self_loops: u128,
    /// Closed-form degree sum over the shard's vertices.
    pub degree_sum: u128,
    /// Closed-form triangle-participation sum over the shard's vertices.
    pub triangle_sum: u128,
    /// Order-independent checksum of the generated entry stream.
    pub hash: StreamHash,
}

impl ShardManifest {
    /// Whether this manifest's closed-form fields match an expectation
    /// recomputed from the factors.
    ///
    /// # Errors
    ///
    /// A message naming the first field (range or closed-form statistic)
    /// that disagrees with the expectation, and the shard index.
    pub fn matches_stats(&self, expect: &RowBlockStats) -> Result<(), String> {
        let check = |name: &str, got: u128, want: u128| {
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "shard {}: {name} is {got}, closed form says {want}",
                    self.shard
                ))
            }
        };
        if self.rows != expect.rows {
            return Err(format!(
                "shard {}: rows {:?} != planned {:?}",
                self.shard, self.rows, expect.rows
            ));
        }
        if self.vertices != expect.vertices {
            return Err(format!(
                "shard {}: vertices {:?} != planned {:?}",
                self.shard, self.vertices, expect.vertices
            ));
        }
        check("entries", self.entries, expect.nnz)?;
        check("self_loops", self.self_loops, expect.self_loops)?;
        check("degree_sum", self.degree_sum, expect.degree_sum)?;
        check("triangle_sum", self.triangle_sum, expect.triangle_sum)
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("shard", Json::num(self.shard)),
            ("row_lo", Json::num(self.rows.start)),
            ("row_hi", Json::num(self.rows.end)),
            ("vertex_lo", Json::num(self.vertices.start)),
            ("vertex_hi", Json::num(self.vertices.end)),
            ("format", Json::str(self.format.as_str())),
            ("version", Json::num(self.format.version())),
            (
                "file",
                match &self.file {
                    Some(f) => Json::str(f),
                    None => Json::Null,
                },
            ),
            ("file_bytes", Json::num(self.file_bytes)),
            ("entries", Json::num(self.entries)),
            ("self_loops", Json::num(self.self_loops)),
            ("degree_sum", Json::num(self.degree_sum)),
            ("triangle_sum", Json::num(self.triangle_sum)),
            ("hash_sum", Json::num(self.hash.sum)),
            ("hash_xor", Json::num(self.hash.xor)),
        ])
    }

    /// Deserialize from JSON.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped key.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let format =
            OutputFormat::parse(j.req("format")?.as_str().ok_or("format is not a string")?)?;
        // `version` arrived with csr2; manifests written before it are
        // implicitly version 1. When present it must agree with `format`.
        if let Some(v) = j.get("version") {
            let v = v.as_u64().ok_or("version is not an integer")?;
            if v != format.version() {
                return Err(format!(
                    "version {v} contradicts format {:?} (expected {})",
                    format.as_str(),
                    format.version()
                ));
            }
        }
        let file = match j.req("file")? {
            Json::Null => None,
            v => Some(v.as_str().ok_or("file is not a string")?.to_string()),
        };
        Ok(ShardManifest {
            shard: j
                .req("shard")?
                .as_usize()
                .ok_or("shard is not an integer")?,
            rows: {
                let u32of = |key: &str| -> Result<u32, String> {
                    u32::try_from(j.req_u64(key)?).map_err(|_| format!("{key} exceeds u32"))
                };
                u32of("row_lo")?..u32of("row_hi")?
            },
            vertices: j.req_u64("vertex_lo")?..j.req_u64("vertex_hi")?,
            format,
            file,
            file_bytes: j.req_u64("file_bytes")?,
            entries: j.req_u128("entries")?,
            self_loops: j.req_u128("self_loops")?,
            degree_sum: j.req_u128("degree_sum")?,
            triangle_sum: j.req_u128("triangle_sum")?,
            hash: StreamHash {
                sum: j.req_u64("hash_sum")?,
                xor: j.req_u64("hash_xor")?,
            },
        })
    }
}

/// The run summary written as `run.json`: factors, plan shape, and totals.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Number of shards.
    pub shards: usize,
    /// Artifact format.
    pub format: OutputFormat,
    /// Left/right factor orders.
    pub n_a: u64,
    /// Right factor order.
    pub n_b: u64,
    /// Left/right factor adjacency nnz.
    pub nnz_a: u64,
    /// Right factor adjacency nnz.
    pub nnz_b: u64,
    /// Total adjacency entries — `nnz_a · nnz_b` exactly.
    pub total_entries: u128,
    /// Total triangle participation (`3·τ(C)`).
    pub total_triangle_sum: u128,
    /// Factor edge-list file names inside the run directory.
    pub factor_a: String,
    /// Right factor edge-list file name.
    pub factor_b: String,
    /// Worker threads used.
    pub threads: usize,
    /// Wall seconds of the generation phase.
    pub elapsed_secs: f64,
    /// Shards skipped because a valid manifest already existed.
    pub resumed_shards: usize,
}

impl RunSummary {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("magic", Json::str("kron-stream-run")),
            ("shards", Json::num(self.shards)),
            ("format", Json::str(self.format.as_str())),
            ("n_a", Json::num(self.n_a)),
            ("n_b", Json::num(self.n_b)),
            ("nnz_a", Json::num(self.nnz_a)),
            ("nnz_b", Json::num(self.nnz_b)),
            ("total_entries", Json::num(self.total_entries)),
            ("total_triangle_sum", Json::num(self.total_triangle_sum)),
            ("factor_a", Json::str(&self.factor_a)),
            ("factor_b", Json::str(&self.factor_b)),
            ("threads", Json::num(self.threads)),
            ("elapsed_secs", Json::num(self.elapsed_secs)),
            ("resumed_shards", Json::num(self.resumed_shards)),
        ])
    }

    /// Deserialize from JSON.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped key, or a document whose
    /// `magic` is not `"kron-stream-run"`.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        if j.req("magic")?.as_str() != Some("kron-stream-run") {
            return Err("not a kron-stream run.json".into());
        }
        Ok(RunSummary {
            shards: j.req_u64("shards")? as usize,
            format: OutputFormat::parse(
                j.req("format")?.as_str().ok_or("format is not a string")?,
            )?,
            n_a: j.req_u64("n_a")?,
            n_b: j.req_u64("n_b")?,
            nnz_a: j.req_u64("nnz_a")?,
            nnz_b: j.req_u64("nnz_b")?,
            total_entries: j.req_u128("total_entries")?,
            total_triangle_sum: j.req_u128("total_triangle_sum")?,
            factor_a: j
                .req("factor_a")?
                .as_str()
                .ok_or("factor_a is not a string")?
                .to_string(),
            factor_b: j
                .req("factor_b")?
                .as_str()
                .ok_or("factor_b is not a string")?
                .to_string(),
            threads: j.req_u64("threads")? as usize,
            elapsed_secs: j
                .req("elapsed_secs")?
                .as_f64()
                .ok_or("elapsed_secs is not a number")?,
            resumed_shards: j.req_u64("resumed_shards")? as usize,
        })
    }
}

/// Write a JSON document atomically ([`write_atomic`]).
///
/// # Errors
///
/// Any I/O error from the write or the rename.
pub fn write_json_atomic(dir: &Path, name: &str, doc: &Json) -> io::Result<()> {
    write_atomic(dir, name, format!("{doc}\n").as_bytes())
}

/// Write `dir/name` atomically: to `name.tmp`, then renamed over `name`,
/// so a reader or a crash finds the old file or the new one, never a
/// truncated one.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, dir.join(name))
}

/// Read and parse a JSON document. Every error — missing file, unreadable
/// file, parse failure — names the offending path, so a multi-shard
/// directory failure is never ambiguous about which manifest it means.
///
/// # Errors
///
/// Any read failure, or `InvalidData` for unparseable JSON — both name
/// the offending path.
pub fn read_json(path: &Path) -> io::Result<Json> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Json::parse(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardManifest {
        ShardManifest {
            shard: 3,
            rows: 16..32,
            vertices: 160..320,
            format: OutputFormat::Csr,
            file: Some("shard_00003.csr".into()),
            file_bytes: 4096,
            entries: u128::MAX / 7,
            self_loops: 12,
            degree_sum: u128::MAX / 7 - 12,
            triangle_sum: 99,
            hash: StreamHash {
                sum: 0xDEAD_BEEF,
                xor: 0xFEED_FACE,
            },
        }
    }

    #[test]
    fn manifest_json_roundtrip() {
        let m = sample();
        let j = m.to_json();
        let back = ShardManifest::from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_rejects_row_range_beyond_u32() {
        let mut j = sample().to_json();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "row_lo" {
                    *v = Json::num(1u64 << 32);
                }
            }
        }
        let err = ShardManifest::from_json(&j).unwrap_err();
        assert!(err.contains("row_lo"), "{err}");
    }

    #[test]
    fn count_manifest_has_null_file() {
        let mut m = sample();
        m.format = OutputFormat::Count;
        m.file = None;
        m.file_bytes = 0;
        let back =
            ShardManifest::from_json(&Json::parse(&m.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.file, None);
    }

    #[test]
    fn run_summary_roundtrip() {
        let s = RunSummary {
            shards: 8,
            format: OutputFormat::Csr2,
            n_a: 1024,
            n_b: 1024,
            nnz_a: 32768,
            nnz_b: 32768,
            total_entries: 32768u128 * 32768,
            total_triangle_sum: 123456789,
            factor_a: "factor_a.tsv".into(),
            factor_b: "factor_b.tsv".into(),
            threads: 16,
            elapsed_secs: 1.25,
            resumed_shards: 0,
        };
        let back = RunSummary::from_json(&Json::parse(&s.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    /// Every tier the running CPU reports: scalar always, then whatever
    /// [`Tier::widest`] picks for a run of one AVX-512 vector.
    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Scalar, Tier::widest(8)];
        tiers.dedup();
        tiers
    }

    #[test]
    fn every_tier_folds_a_run_bit_identically_to_per_entry_updates() {
        // random columns (SplitMix64 over a counter) with 0 and u64::MAX
        // among them; every length up to past 16 vectors of 8 lanes, so
        // each remainder of each tier is hit, and a 99·99 hub row
        let word = |i: u64| mix(i.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let mut runs: Vec<(u64, Vec<u64>)> = (0..=130u64)
            .map(|len| {
                let mut cols: Vec<u64> = (0..len).map(|i| word(len << 32 | i)).collect();
                if let [first, .., last] = cols.as_mut_slice() {
                    (*first, *last) = (0, u64::MAX);
                }
                let p = [0, u64::MAX, word(len)][len as usize % 3];
                (p, cols)
            })
            .collect();
        runs.push((0, (1..=9_801).map(word).collect()));
        for (p, cols) in &runs {
            let mut want = StreamHash::default();
            for &q in cols {
                want.update(*p, q);
            }
            for tier in tiers() {
                let (sum, xor) = tier.fold(*p, cols);
                assert_eq!(
                    StreamHash { sum, xor },
                    want,
                    "{tier:?}, {} columns",
                    cols.len()
                );
            }
            let mut got = StreamHash::default();
            got.update_run(*p, cols);
            assert_eq!(got, want, "update_run, {} columns", cols.len());
        }
    }

    #[test]
    fn stream_hash_is_order_independent_and_sensitive() {
        fn of(entries: &[(u64, u64)]) -> StreamHash {
            let mut h = StreamHash::default();
            for &(p, q) in entries {
                h.update(p, q);
            }
            h
        }
        let fwd = of(&[(1, 2), (3, 4), (5, 6)]);
        assert_eq!(fwd, of(&[(5, 6), (3, 4), (1, 2)]));
        assert_ne!(fwd, of(&[(1, 2), (3, 4), (5, 7)]), "tampered");
        assert_ne!(fwd, of(&[(2, 1), (4, 3), (6, 5)]), "(p, q) is not (q, p)");
        // a run is its entries, however a row is cut into runs
        let mut runs = StreamHash::default();
        runs.update_run(7, &[1, 2]);
        runs.update_run(7, &[9]);
        runs.update_run(8, &[]);
        assert_eq!(runs, of(&[(7, 1), (7, 2), (7, 9)]));
    }

    #[test]
    fn split_mix_hashes_a_u64_key_with_one_mix() {
        use std::hash::BuildHasher;
        for key in [0u64, 1, 7, u64::MAX] {
            assert_eq!(SplitMix::default().hash_one(key), mix(key));
        }
        // a byte write folds little-endian words, short tail zero-padded
        let mut h = MixHasher::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(h.finish(), mix(mix(1) ^ 2));
    }

    #[test]
    fn format_parse_roundtrip() {
        for f in [OutputFormat::Csr, OutputFormat::Csr2, OutputFormat::Count] {
            assert_eq!(OutputFormat::parse(f.as_str()).unwrap(), f);
        }
        for gone in ["parquet", "edges"] {
            let err = OutputFormat::parse(gone).unwrap_err();
            assert!(
                err.contains("(expected csr, csr2, or count)"),
                "error must name the accepted set: {err}"
            );
        }
        assert_eq!(
            OutputFormat::Csr.artifact_name(7).unwrap(),
            "shard_00007.csr"
        );
        assert_eq!(
            OutputFormat::Csr2.artifact_name(7).unwrap(),
            "shard_00007.csr2"
        );
        assert_eq!(OutputFormat::Count.artifact_name(7), None);
        assert_eq!(manifest_name(7), "shard_00007.json");
        assert_eq!(OutputFormat::Csr.version(), 1);
        assert_eq!(OutputFormat::Csr2.version(), 2);
    }

    #[test]
    fn manifest_version_tracks_format_and_rejects_contradiction() {
        let m = sample();
        let j = m.to_json();
        assert_eq!(j.get("version").and_then(Json::as_u64), Some(1));
        // a pre-version manifest (no `version` key) still parses
        let mut pairs = match Json::parse(&j.to_string()).unwrap() {
            Json::Obj(pairs) => pairs,
            _ => unreachable!(),
        };
        pairs.retain(|(k, _)| k != "version");
        assert_eq!(ShardManifest::from_json(&Json::Obj(pairs)).unwrap(), m);
        // a version that contradicts the format is rejected
        let mut j = m.to_json();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "version" {
                    *v = Json::num(2u64);
                }
            }
        }
        let err = ShardManifest::from_json(&j).unwrap_err();
        assert!(err.contains("version 2 contradicts"), "{err}");
    }
}

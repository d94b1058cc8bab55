//! The shard driver: run a plan's shards concurrently, producing durable
//! artifacts + manifests, with resume support.

use crate::manifest::{
    manifest_name, read_json, write_atomic, write_json_atomic, OutputFormat, RunSummary,
    ShardManifest, StreamHash,
};
use crate::open::{check_shard, Depth};
use crate::plan::{ShardPlan, ShardSpec};
use crate::sink::{CountSink, Csr2Sink, CsrSink, EdgeSink};
use crate::StreamError;
use kron::KronProduct;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration of a stream run.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Output directory (created if missing).
    pub out_dir: PathBuf,
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Artifact format.
    pub format: OutputFormat,
    /// Worker threads; 0 means available parallelism.
    pub threads: usize,
    /// Skip shards that pass the header check of [`crate::ShardSet::open`]
    /// for this format, and regenerate the rest.
    ///
    /// A kept shard's manifest names its index and equals its plan entry,
    /// and its artifact's header maps and matches the manifest: O(rows)
    /// per shard, no content read. Bit-level corruption of a same-size
    /// artifact's rows is the job of [`crate::verify_shards`]; delete the
    /// artifact it flags and resume.
    pub resume: bool,
}

impl StreamConfig {
    /// A config writing `format` artifacts into `out_dir` with defaults
    /// (8 shards, auto threads, no resume).
    pub fn new(out_dir: impl Into<PathBuf>, format: OutputFormat) -> Self {
        Self {
            out_dir: out_dir.into(),
            shards: 8,
            format,
            threads: 0,
            resume: false,
        }
    }
}

/// Factor edge-list file names inside a run directory.
pub const FACTOR_A_FILE: &str = "factor_a.tsv";
/// Right-factor edge-list file name inside a run directory.
pub const FACTOR_B_FILE: &str = "factor_b.tsv";
/// Run summary file name inside a run directory.
pub const RUN_FILE: &str = "run.json";

/// Stream one shard through a sink, computing observed statistics, and
/// return its manifest. Exposed for tests and benchmarks; the driver calls
/// this per shard.
///
/// # Errors
///
/// [`StreamError::Shard`] when the sink fails or the observed shard
/// statistics disagree with the closed forms.
pub fn run_shard(
    product: &KronProduct,
    spec: &ShardSpec,
    format: OutputFormat,
    sink: &mut dyn EdgeSink,
) -> Result<ShardManifest, StreamError> {
    let expect = &spec.stats;
    let mut hash = StreamHash::default();
    let mut entries = 0u128;
    let mut self_loops = 0u128;
    let mut runs = product.runs_in_rows(expect.rows.clone());
    while let Some((p, cols)) = runs.next_run() {
        hash.update_run(p, cols);
        entries += cols.len() as u128;
        self_loops += cols.iter().filter(|&&q| q == p).count() as u128;
        sink.push_run(p, cols)
            .map_err(|e| StreamError::Shard(spec.index, e.to_string()))?;
    }
    let artifact = sink
        .finish()
        .map_err(|e| StreamError::Shard(spec.index, e.to_string()))?;
    // Observed stream vs closed form — a disagreement here means the
    // generator itself is broken; fail loudly rather than persist it.
    if entries != expect.nnz || self_loops != expect.self_loops {
        return Err(StreamError::Shard(
            spec.index,
            format!(
                "observed {entries} entries / {self_loops} loops, closed form says {} / {}",
                expect.nnz, expect.self_loops
            ),
        ));
    }
    let (file, file_bytes) = match artifact {
        Some((name, bytes)) => (Some(name), bytes),
        None => (None, 0),
    };
    Ok(ShardManifest {
        shard: spec.index,
        rows: expect.rows.clone(),
        vertices: expect.vertices.clone(),
        format,
        file,
        file_bytes,
        entries,
        self_loops,
        degree_sum: expect.degree_sum,
        triangle_sum: expect.triangle_sum,
        hash,
    })
}

/// Build the configured sink for one shard.
fn make_sink<'a>(
    dir: &Path,
    spec: &ShardSpec,
    format: OutputFormat,
    product: &'a KronProduct,
) -> Result<Box<dyn EdgeSink + 'a>, StreamError> {
    // A format with no artifact name ([`OutputFormat::Count`]) must never
    // reach the file-backed arms; surface a mismatch as a shard error
    // rather than panicking, so a refactored call path degrades to a
    // failed run instead of an abort.
    let named = || {
        format.artifact_name(spec.index).ok_or_else(|| {
            StreamError::Shard(
                spec.index,
                format!("format {:?} has no artifact file name", format.as_str()),
            )
        })
    };
    let io_err = |e: std::io::Error| StreamError::Shard(spec.index, e.to_string());
    Ok(match format {
        OutputFormat::Count => Box::new(CountSink::default()),
        OutputFormat::Csr => Box::new(
            CsrSink::create(
                dir,
                &named()?,
                spec.stats.vertices.start,
                product.row_lengths_in_rows(spec.stats.rows.clone()),
            )
            .map_err(io_err)?,
        ),
        OutputFormat::Csr2 => Box::new(
            Csr2Sink::create(
                dir,
                &named()?,
                spec.stats.vertices.start,
                product.row_lengths_in_rows(spec.stats.rows.clone()),
            )
            .map_err(io_err)?,
        ),
    })
}

/// Workers for a shard-parallel stage: `requested`, or every available
/// core when that is 0; at most one per shard.
fn worker_count(requested: usize, shards: usize) -> usize {
    let threads = match requested {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    threads.min(shards).max(1)
}

/// The one shard-parallel loop: run `work(i)` for every shard index in
/// `0..shards` on [`worker_count`]`(threads, shards)` workers (the calling
/// thread is one of them) and return the results in shard order.
///
/// Workers claim indices in ascending order and finish what they claim;
/// after a failure nobody claims further. So when shard `k` fails, every
/// shard below `k` has been claimed and runs to completion, and the error
/// returned is always that of the **lowest-index** failing shard —
/// whatever the worker count or timing.
pub(crate) fn for_each_shard<T: Send>(
    shards: usize,
    threads: usize,
    work: impl Fn(usize) -> Result<T, StreamError> + Sync,
) -> Result<Vec<T>, StreamError> {
    // Both atomics only hand out work; results travel through the mutex.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let done = Mutex::new(Vec::with_capacity(shards));
    let threads = worker_count(threads, shards);
    let worker = || {
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= shards {
                break;
            }
            let result = work(i);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.lock()
                .expect("no worker panics holding the lock")
                .push((i, result));
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(worker);
        }
        worker();
    });
    let mut done = done.into_inner().expect("workers are joined");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Validate a shard count from config or a run directory.
pub(crate) fn check_shard_count(shards: usize) -> Result<(), String> {
    if shards == 0 {
        Err("shards must be ≥ 1".into())
    } else if shards > crate::plan::MAX_SHARDS {
        Err(format!(
            "shard count {shards} exceeds the sanity bound {}",
            crate::plan::MAX_SHARDS
        ))
    } else {
        Ok(())
    }
}

/// Remove shard files a previous run left behind that the current plan
/// will not overwrite: any `shard_NNNNN.*` with index ≥ `shards`, and
/// every other `shard_NNNNN.*` but the manifest and the artifact the
/// current format names — another format's artifact (including one no
/// longer written) and stray `.tmp` leftovers. Without this, re-running
/// into the same directory with fewer shards (or another format) leaves
/// stale artifacts that a `shard_*`-globbing consumer would happily mix
/// with the new plan's.
fn remove_stale_shard_files(
    dir: &Path,
    shards: usize,
    format: OutputFormat,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("shard_") else {
            continue;
        };
        let Some((index, ext)) = rest.split_once('.') else {
            continue;
        };
        let Ok(index) = index.parse::<usize>() else {
            continue;
        };
        let ours = ext == "json" || format.artifact_name(index).as_deref() == Some(name);
        if index >= shards || !ours {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Load a shard's manifest from a run directory.
///
/// # Errors
///
/// [`StreamError::Io`] when the manifest file is missing or unreadable
/// (the message names the path), [`StreamError::Manifest`] when it does
/// not parse.
pub fn load_manifest(dir: &Path, shard: usize) -> Result<ShardManifest, StreamError> {
    let path = dir.join(manifest_name(shard));
    let doc = read_json(&path).map_err(|e| StreamError::Io(e.to_string()))?;
    ShardManifest::from_json(&doc)
        .map_err(|e| StreamError::Manifest(format!("{}: {e}", path.display())))
}

impl RunSummary {
    /// Load and sanity-check a run directory's `run.json` — the one way
    /// every consumer of a run directory learns its shape.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] when `run.json` is missing or unreadable (the
    /// message names the path), [`StreamError::Manifest`] when it does not
    /// parse or its shard count is zero or beyond [`crate::MAX_SHARDS`].
    pub fn load(dir: &Path) -> Result<RunSummary, StreamError> {
        let path = dir.join(RUN_FILE);
        let doc = read_json(&path).map_err(|e| StreamError::Io(e.to_string()))?;
        let run = RunSummary::from_json(&doc)
            .map_err(|e| StreamError::Manifest(format!("{}: {e}", path.display())))?;
        check_shard_count(run.shards)
            .map_err(|e| StreamError::Manifest(format!("run.json: {e}")))?;
        Ok(run)
    }
}

/// Rebuild the implicit product — the closed-form ground truth — from a
/// run directory's factor copies, refusing copies that are not the
/// factors `run` was generated from: vertex counts and adjacency nnz per
/// copy, then the closed-form triangle sum of the pair. Every
/// [`crate::ShardSet`] open (so the serving oracle and `tri-census`
/// validation), [`crate::verify_shards`] and [`crate::compact_run`] load
/// through here, so none can validate an artifact against factors
/// another would refuse.
///
/// # Errors
///
/// [`StreamError::Io`] naming the factor copy that is missing or
/// unreadable; [`StreamError::Manifest`] naming the copy whose vertex
/// count or nnz disagrees with `run.json`, or the pair when only the
/// triangle sum does.
pub fn load_factors(dir: &Path, run: &RunSummary) -> Result<KronProduct, StreamError> {
    let read = |name: &str| {
        kron_graph::read_edge_list_path(dir.join(name))
            .map_err(|e| StreamError::Io(format!("factor copy {name}: {e}")))
    };
    let (a, b) = (read(&run.factor_a)?, read(&run.factor_b)?);
    for (name, what, got, want) in [
        (
            &run.factor_a,
            "vertex count",
            a.num_vertices() as u64,
            run.n_a,
        ),
        (
            &run.factor_b,
            "vertex count",
            b.num_vertices() as u64,
            run.n_b,
        ),
        (&run.factor_a, "adjacency nnz", a.nnz(), run.nnz_a),
        (&run.factor_b, "adjacency nnz", b.nnz(), run.nnz_b),
    ] {
        if got != want {
            return Err(StreamError::Manifest(format!(
                "factor copy {name}: {what} is {got}, run.json says {want} \
                 (stale or swapped factor file)"
            )));
        }
    }
    let product = KronProduct::new(a, b);
    let (got, want) = (
        product.total_triangle_participation(),
        run.total_triangle_sum,
    );
    if got != want {
        return Err(StreamError::Manifest(format!(
            "factor copies {} ⊗ {}: closed-form triangle sum is {got}, run.json \
             recorded {want} (factors do not generate this run)",
            run.factor_a, run.factor_b
        )));
    }
    Ok(product)
}

/// The run-wide totals of `manifests` — `(entries, triangle sum)` — which
/// must be the product's `nnz(A)·nnz(B)` and `3·τ(C)`: checked by
/// [`stream_product`] before it writes `run.json`.
pub(crate) fn run_totals(
    product: &KronProduct,
    manifests: &[ShardManifest],
) -> Result<(u128, u128), StreamError> {
    let entries: u128 = manifests.iter().map(|m| m.entries).sum();
    let triangle_sum: u128 = manifests.iter().map(|m| m.triangle_sum).sum();
    if entries != product.nnz() {
        return Err(StreamError::Manifest(format!(
            "shard entries sum to {entries}, product nnz is {}",
            product.nnz()
        )));
    }
    if triangle_sum != product.total_triangle_participation() {
        return Err(StreamError::Manifest(format!(
            "shard triangle sums total {triangle_sum}, closed form says {}",
            product.total_triangle_participation()
        )));
    }
    Ok((entries, triangle_sum))
}

/// Generate all shards of `product` into `cfg.out_dir`.
///
/// Writes per-shard artifacts + manifests, copies of both factor edge
/// lists (so the run is self-describing and re-verifiable), and a
/// `run.json` summary. Shards run concurrently on `cfg.threads` workers;
/// with `cfg.resume`, shards whose manifest already validates are skipped.
///
/// # Errors
///
/// [`StreamError::Config`] for an invalid configuration (zero/too many
/// shards), [`StreamError::Io`] for directory/summary I/O failures, and
/// [`StreamError::Shard`] naming the lowest-index shard whose generation
/// or validation failed.
pub fn stream_product(
    product: &KronProduct,
    cfg: &StreamConfig,
) -> Result<RunSummary, StreamError> {
    check_shard_count(cfg.shards).map_err(StreamError::Config)?;
    let dir = &cfg.out_dir;
    std::fs::create_dir_all(dir).map_err(|e| StreamError::Io(e.to_string()))?;
    remove_stale_shard_files(dir, cfg.shards, cfg.format)
        .map_err(|e| StreamError::Io(e.to_string()))?;
    let (a, b) = product.factors();
    for (file, g) in [(FACTOR_A_FILE, a), (FACTOR_B_FILE, b)] {
        // Renamed into place: once a resume has deleted another format's
        // artifacts, the factor copies are all the run can be regenerated
        // from, and a write killed midway must not truncate them.
        let mut text = Vec::new();
        kron_graph::write_edge_list(g, &mut text)
            .and_then(|()| write_atomic(dir, file, &text))
            .map_err(|e| StreamError::Io(format!("writing {file}: {e}")))?;
    }

    let plan = ShardPlan::new(product, cfg.shards);
    let threads = worker_count(cfg.threads, cfg.shards);

    let t0 = std::time::Instant::now();
    let shards = for_each_shard(cfg.shards, threads, |i| {
        let spec = plan.get(i).expect("the plan has cfg.shards shards");
        if cfg.resume {
            if let Ok((m, _)) = check_shard(dir, cfg.format, product, spec, Depth::Header) {
                return Ok((true, m));
            }
        }
        let mut sink = make_sink(dir, spec, cfg.format, product)?;
        let m = run_shard(product, spec, cfg.format, sink.as_mut())?;
        write_json_atomic(dir, &manifest_name(spec.index), &m.to_json())
            .map_err(|e| StreamError::Shard(spec.index, e.to_string()))?;
        Ok((false, m))
    })?;
    let (resumed, manifests): (Vec<bool>, Vec<ShardManifest>) = shards.into_iter().unzip();
    let (total_entries, total_triangle_sum) = run_totals(product, &manifests)?;

    let summary = RunSummary {
        shards: cfg.shards,
        format: cfg.format,
        n_a: a.num_vertices() as u64,
        n_b: b.num_vertices() as u64,
        nnz_a: a.nnz(),
        nnz_b: b.nnz(),
        total_entries,
        total_triangle_sum,
        factor_a: FACTOR_A_FILE.into(),
        factor_b: FACTOR_B_FILE.into(),
        threads,
        elapsed_secs: t0.elapsed().as_secs_f64(),
        resumed_shards: resumed.into_iter().filter(|&r| r).count(),
    };
    write_json_atomic(dir, RUN_FILE, &summary.to_json())
        .map_err(|e| StreamError::Io(e.to_string()))?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};

    #[test]
    fn results_come_back_in_shard_order() {
        for threads in [1, 3, 8] {
            let squares = for_each_shard(5, threads, |i| Ok(i * i)).unwrap();
            assert_eq!(squares, [0, 1, 4, 9, 16]);
        }
        assert_eq!(for_each_shard(0, 1, Ok).unwrap(), []);
    }

    #[test]
    fn one_worker_stops_at_the_first_failure() {
        let calls = AtomicUsize::new(0);
        let err = for_each_shard(4, 1, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            match i {
                1 | 3 => Err(StreamError::Shard(i, "bad".into())),
                _ => Ok(()),
            }
        })
        .unwrap_err();
        assert!(matches!(err, StreamError::Shard(1, _)), "{err}");
        assert_eq!(calls.into_inner(), 2, "shards 2 and 3 were never claimed");
    }

    #[test]
    fn a_later_failure_of_a_lower_shard_still_wins() {
        // Four workers each hold one shard (the barrier); shard 3 fails
        // first, and shard 1 only once shard 3 is on its way out.
        let all_claimed = Barrier::new(4);
        let (three_failed, wait_for_three) = mpsc::channel();
        let wait_for_three = Mutex::new(wait_for_three);
        let err = for_each_shard(4, 4, |i| {
            all_claimed.wait();
            match i {
                3 => {
                    three_failed.send(()).unwrap();
                    Err(StreamError::Shard(3, "bad".into()))
                }
                1 => {
                    wait_for_three.lock().unwrap().recv().unwrap();
                    Err(StreamError::Shard(1, "bad".into()))
                }
                _ => Ok(()),
            }
        })
        .unwrap_err();
        assert!(matches!(err, StreamError::Shard(1, _)), "{err}");
    }

    #[test]
    fn factor_copies_are_renamed_into_place_never_truncated() {
        let dir =
            std::env::temp_dir().join(format!("kron_driver_test_{}_factors", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = kron_graph::Graph::from_edges(3, [(0, 1), (1, 2)]);
        let b = kron_graph::Graph::from_edges(2, [(0, 1), (1, 1)]);
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr2);
        cfg.shards = 2;
        stream_product(&KronProduct::new(a.clone(), b.clone()), &cfg).unwrap();
        let files = [FACTOR_A_FILE, FACTOR_B_FILE];
        let old = files.map(|f| std::fs::read(dir.join(f)).unwrap());
        let held = files.map(|f| std::fs::File::open(dir.join(f)).unwrap());
        // the factors swap places, so both copies change
        cfg.resume = true;
        stream_product(&KronProduct::new(b, a), &cfg).unwrap();
        for ((file, mut held), old) in files.into_iter().zip(held).zip(old) {
            let mut seen = Vec::new();
            std::io::Read::read_to_end(&mut held, &mut seen).unwrap();
            assert_eq!(seen, old, "{file}: the old copy was written over");
            assert_ne!(std::fs::read(dir.join(file)).unwrap(), old, "{file}");
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "{name:?} left behind"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_count_is_capped_by_shards_and_never_zero() {
        assert_eq!(worker_count(8, 3), 3);
        assert_eq!(worker_count(2, 16), 2);
        assert_eq!(worker_count(5, 0), 1);
        let auto = worker_count(0, usize::MAX);
        assert!(auto >= 1);
        assert_eq!(worker_count(0, 1), 1);
    }
}

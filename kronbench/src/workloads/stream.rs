//! `stream_csr2`: the paper's headline path. One repetition streams
//! the product to `csr2` shards with all cores, re-validates the run
//! from the factors (`verify_shards --rehash`), and cold-opens it with
//! checksums — generate, validate, serve-ready.

use super::{finish, repeat_setup, Ctx, Outcome};
use crate::inputs::web_product;
use crate::proc;
use crate::rig::WorkDir;
use crate::stats::{median, Slice};
use crate::trace::{Recorder, Span, NONE};
use kron::KronProduct;
use kron_stream::{
    manifest_name, run_shard, stream_product, verify_shards, Csr2Sink, OutputFormat, RunSummary,
    ShardManifest, ShardPlan, ShardSet, StreamConfig, StreamError, FACTOR_A_FILE, FACTOR_B_FILE,
    RUN_FILE,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const FORMAT: OutputFormat = OutputFormat::Csr2;

/// One shard of the traced driver: start, end (ns since the workers
/// started) and what `run_shard` returned.
type ShardRun = (u64, u64, Result<ShardManifest, StreamError>);

/// The closed-form totals a run must reproduce.
struct Expect {
    nnz: u128,
    triangle_sum: u128,
}

/// What `stream_product` does, from outside and with a span around
/// every stage: plan, one `run_shard` per shard on all cores through
/// the public sink, then manifests, factor copies and `run.json`.
/// Only the traced run uses it; the numbers that count come from
/// `stream_product` itself.
fn traced_stream(
    product: &KronProduct,
    dir: &Path,
    shards: usize,
    rec: &mut Recorder,
    parent: u32,
    op: u32,
) -> Result<RunSummary, StreamError> {
    let io = |e: std::io::Error| StreamError::Io(e.to_string());
    std::fs::create_dir_all(dir).map_err(io)?;
    let t0 = Instant::now();

    let span = rec.begin("stream.plan", parent, op);
    let plan = ShardPlan::new(product, shards);
    rec.end(span);

    let threads = proc::cores().min(shards);
    let origin_ns = rec.now_ns();
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<ShardRun>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while let Some(spec) = plan.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let start = origin.elapsed().as_nanos() as u64;
                    let name = FORMAT
                        .artifact_name(spec.index)
                        .expect("csr2 names its artifacts");
                    let result = Csr2Sink::create(
                        dir,
                        &name,
                        spec.stats.vertices.start,
                        product.row_lengths_in_rows(spec.stats.rows.clone()),
                    )
                    .map_err(|e| StreamError::Shard(spec.index, e.to_string()))
                    .and_then(|mut sink| run_shard(product, spec, FORMAT, &mut sink));
                    let end = origin.elapsed().as_nanos() as u64;
                    done.lock()
                        .expect("no worker panics holding it")
                        .push((start, end, result));
                }
            });
        }
    });
    let mut manifests = Vec::new();
    for (start, end, result) in done.into_inner().expect("workers are joined") {
        let manifest = result?;
        rec.push(Span {
            name: "stream.shard",
            index: manifest.shard as u32,
            start_ns: origin_ns + start,
            end_ns: origin_ns + end,
            parent,
            op_id: op,
        });
        manifests.push(manifest);
    }

    let span = rec.begin("stream.manifest", parent, op);
    let (a, b) = product.factors();
    for (file, g) in [(FACTOR_A_FILE, a), (FACTOR_B_FILE, b)] {
        kron_graph::write_edge_list_path(g, dir.join(file)).map_err(io)?;
    }
    for m in &manifests {
        std::fs::write(
            dir.join(manifest_name(m.shard)),
            format!("{}\n", m.to_json()),
        )
        .map_err(io)?;
    }
    let summary = RunSummary {
        shards,
        format: FORMAT,
        n_a: a.num_vertices() as u64,
        n_b: b.num_vertices() as u64,
        nnz_a: a.nnz(),
        nnz_b: b.nnz(),
        total_entries: manifests.iter().map(|m| m.entries).sum(),
        total_triangle_sum: manifests.iter().map(|m| m.triangle_sum).sum(),
        factor_a: FACTOR_A_FILE.into(),
        factor_b: FACTOR_B_FILE.into(),
        threads,
        elapsed_secs: t0.elapsed().as_secs_f64(),
        resumed_shards: 0,
    };
    std::fs::write(dir.join(RUN_FILE), format!("{}\n", summary.to_json())).map_err(io)?;
    rec.end(span);
    Ok(summary)
}

/// What one repetition took.
#[derive(Clone, Copy)]
struct Cycle {
    stream_s: f64,
    verify_s: f64,
    open_s: f64,
    bytes_per_entry: f64,
}

/// One timed repetition: stream, verify, open, each checked. With a
/// recorder that is on, the stream is the harness's traced driver.
fn repetition(
    product: &KronProduct,
    expect: &Expect,
    dir: &Path,
    shards: usize,
    rec: &mut Recorder,
    op: u32,
    out: &mut Outcome,
) -> Cycle {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let span = rec.begin("stream", NONE, op);
    let summary = if rec.is_on() {
        traced_stream(product, dir, shards, rec, span, op)
    } else {
        let mut cfg = StreamConfig::new(dir, FORMAT);
        cfg.shards = shards;
        stream_product(product, &cfg)
    };
    rec.end(span);
    let stream_s = t0.elapsed().as_secs_f64();
    out.check(
        matches!(&summary, Ok(s) if s.total_entries == expect.nnz && s.total_triangle_sum == expect.triangle_sum),
        || format!("stream did not reproduce the closed forms: {summary:?}"),
    );

    let t0 = Instant::now();
    let span = rec.begin("stream.verify", NONE, op);
    let report = verify_shards(dir, true);
    rec.end(span);
    let verify_s = t0.elapsed().as_secs_f64();
    out.check(
        matches!(&report, Ok(r) if r.rehashed && r.total_entries == expect.nnz),
        || format!("verify_shards --rehash: {report:?}"),
    );
    let bytes_per_entry = report.map_or(0.0, |r| {
        r.artifact_bytes as f64 / r.total_entries.max(1) as f64
    });

    let t0 = Instant::now();
    let span = rec.begin("stream.open", NONE, op);
    let set = ShardSet::open_verified(dir);
    rec.end(span);
    let open_s = t0.elapsed().as_secs_f64();
    out.check(
        matches!(&set, Ok(s) if s.total_entries() == expect.nnz && s.is_complete()),
        || {
            format!(
                "open_verified: {:?}",
                set.as_ref().map(|s| s.total_entries())
            )
        },
    );
    Cycle {
        stream_s,
        verify_s,
        open_s,
        bytes_per_entry,
    }
}

pub fn run(ctx: &mut Ctx<'_>) -> Outcome {
    // set-up: factor generation, the product's closed-form tables, the
    // expected totals
    let ((product, expect), setup_s) = repeat_setup(ctx.setups(), || {
        let product = web_product(ctx.sizes.stream_n);
        let expect = Expect {
            nnz: product.nnz(),
            triangle_sum: product.total_triangle_participation(),
        };
        (product, expect)
    });
    let work = WorkDir::new("stream");
    let dir = work.path().join("run");
    let mut out = Outcome::default();
    let (mut plain, mut traced): (Vec<Cycle>, Vec<Cycle>) = (Vec::new(), Vec::new());
    let mut off = Recorder::off();

    let cpu_before = proc::cpu_us();
    let started = Instant::now();
    let mut rep = 0u32;
    // at least three untraced repetitions, however slow the machine
    while started.elapsed().as_secs_f64() < ctx.seconds || plain.len() < 3 {
        let (rec, cycles) = if ctx.traced() && rep % 2 == 1 {
            (&mut *ctx.rec, &mut traced)
        } else {
            (&mut off, &mut plain)
        };
        cycles.push(repetition(
            &product,
            &expect,
            &dir,
            ctx.sizes.shards,
            rec,
            rep,
            &mut out,
        ));
        rep += 1;
    }
    let cpu_us = proc::cpu_us() - cpu_before;

    // ops_per_s: entries per second of stream wall; the operation timed
    // by p50_us is the whole cycle
    let nnz = expect.nnz as u64;
    let slices = |cycles: &[Cycle]| -> Vec<Slice> {
        cycles
            .iter()
            .map(|c| Slice {
                units: nnz,
                secs: c.stream_s,
                lat_ns: vec![((c.stream_s + c.verify_s + c.open_s) * 1e9) as u64],
            })
            .collect()
    };
    out.set_window(&slices(&plain), &slices(&traced), cpu_us);
    let column = |f: fn(&Cycle) -> f64| -> Vec<f64> { plain.iter().map(f).collect() };
    out.observed.verify_entries_per_s = nnz as f64 / median(&column(|c| c.verify_s));
    out.observed.open_s = median(&column(|c| c.open_s));
    out.e2e.bytes_per_entry = median(&column(|c| c.bytes_per_entry));
    drop(work);
    finish(out, setup_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Sizes;

    #[test]
    fn traced_and_untraced_repetitions_both_validate() {
        let mut rec = Recorder::new(10_000);
        let mut ctx = Ctx {
            seed: 4,
            seconds: 0.3,
            sizes: Sizes::quick(),
            rec: &mut rec,
        };
        let out = run(&mut ctx);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(
            out.attempted >= 5 * 3,
            "three checks per repetition, three untraced and two traced at least"
        );
        assert!(out.e2e.bytes_per_entry > 1.0 && out.e2e.bytes_per_entry < 4.0);
        assert!(out.observed.trace_overhead_frac.is_finite());
        let spans = rec.spans();
        let stream = spans.iter().position(|s| s.name == "stream").unwrap() as u32;
        let shards: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "stream.shard" && s.parent == stream)
            .map(|s| s.index)
            .collect();
        assert_eq!(
            shards.len(),
            Sizes::quick().shards,
            "one span per shard of the first traced stream"
        );
        for name in [
            "stream.plan",
            "stream.manifest",
            "stream.verify",
            "stream.open",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "{name}");
        }
    }

    #[test]
    fn a_corrupted_shard_fails_the_repetition() {
        let product = web_product(30);
        let expect = Expect {
            nnz: product.nnz(),
            triangle_sum: product.total_triangle_participation(),
        };
        let work = WorkDir::new("stream_corrupt");
        let dir = work.path().join("run");
        let mut out = Outcome::default();
        repetition(
            &product,
            &expect,
            &dir,
            2,
            &mut Recorder::off(),
            0,
            &mut out,
        );
        assert_eq!((out.attempted, out.failed), (3, 0));
        // the same directory with one flipped byte no longer verifies or opens
        crate::selftest::flip_one_byte(&dir);
        let mut out = Outcome::default();
        crate::workloads::check_artifact(&dir, 1, &mut out);
        assert_eq!(out.failed, out.attempted, "{:?}", out.failures);
    }
}

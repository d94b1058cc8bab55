//! `analyze`: the whole-graph kernels over a v1 `csr` run. One
//! repetition is BFS from 16 seeded sources, connected components × 4,
//! 60 fixed PageRank iterations, and one triangle census validated
//! against the closed forms — sized so the scan kernels and the census
//! each take a good share of it.

use super::{check_artifact, finish, repeat_setup, Ctx, Outcome};
use crate::inputs::{lane_rng, web_product};
use crate::proc;
use crate::rig::{stream_run, WorkDir};
use crate::stats::Slice;
use crate::trace::{Recorder, NONE};
use kron_analyze::{run_kernel, Kernel, KernelSpec};
use kron_stream::json::Json;
use kron_stream::{OutputFormat, ShardSet};
use rand::prelude::*;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

pub const BFS_SOURCES: usize = 16;
pub const CC_RUNS: usize = 4;
pub const PAGERANK_ITERS: u64 = 60;
/// Nominal passes over the adjacency entries in one repetition.
pub const PASSES: u64 = BFS_SOURCES as u64 + CC_RUNS as u64 + PAGERANK_ITERS + 1;

/// PageRank with a fixed iteration count (`tol = -1` is unreachable).
pub fn fixed_pagerank(iters: u64) -> KernelSpec {
    KernelSpec {
        tol: -1.0,
        max_iters: iters,
        ..KernelSpec::new(Kernel::Pagerank)
    }
}

/// Run one kernel inside a span and check its result document.
fn kernel(
    set: &ShardSet,
    spec: &KernelSpec,
    check: impl Fn(&Json) -> bool,
    rec: &mut Recorder,
    parent: u32,
    op: u32,
    out: &mut Outcome,
) {
    let name = match spec.kernel {
        Kernel::Bfs => "analyze.bfs",
        Kernel::Cc => "analyze.cc",
        Kernel::Pagerank => "analyze.pagerank",
        Kernel::TriCensus => "analyze.census",
    };
    let span = rec.begin(name, parent, op);
    let result = run_kernel(set, spec, &AtomicBool::new(false));
    rec.end(span);
    out.check(matches!(&result, Ok(doc) if check(doc)), || match &result {
        Ok(doc) => format!("{name}: unexpected result {doc}"),
        Err(e) => format!("{name}: {e}"),
    });
}

fn repetition(
    set: &ShardSet,
    sources: &[u64],
    rec: &mut Recorder,
    op: u32,
    out: &mut Outcome,
) -> f64 {
    // Holme–Kim factors are connected by construction, and a factor with
    // a triangle is not bipartite, so their product is one component
    let connected = set.run().total_triangle_sum > 0;
    let t0 = Instant::now();
    let span = rec.begin("analyze", NONE, op);
    let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64);
    for &source in sources {
        let spec = KernelSpec {
            source,
            ..KernelSpec::new(Kernel::Bfs)
        };
        kernel(
            set,
            &spec,
            |doc| doc.get("levels").is_some(),
            rec,
            span,
            op,
            out,
        );
    }
    for _ in 0..CC_RUNS {
        let spec = KernelSpec::new(Kernel::Cc);
        let check = |doc: &Json| field(doc, "components").is_some_and(|c| c == 1 || !connected);
        kernel(set, &spec, check, rec, span, op, out);
    }
    let spec = fixed_pagerank(PAGERANK_ITERS);
    kernel(
        set,
        &spec,
        |doc| field(doc, "iterations") == Some(PAGERANK_ITERS),
        rec,
        span,
        op,
        out,
    );
    // `run_kernel` returns Err(Validation) unless the census reproduces
    // the closed forms; Ok is the verdict
    let spec = KernelSpec::new(Kernel::TriCensus);
    kernel(
        set,
        &spec,
        |doc| field(doc, "entries") == Some(set.total_entries() as u64),
        rec,
        span,
        op,
        out,
    );
    rec.end(span);
    t0.elapsed().as_secs_f64()
}

pub fn run(ctx: &mut Ctx<'_>) -> Outcome {
    let sizes = ctx.sizes;
    let ((work, set), setup_s) = repeat_setup(ctx.setups(), || {
        let product = web_product(sizes.analyze_n);
        let work = WorkDir::new("analyze");
        stream_run(
            &product,
            work.path(),
            OutputFormat::Csr,
            sizes.analyze_shards,
        );
        let set = ShardSet::open_verified(work.path()).expect("open the analyze run");
        (work, set)
    });
    let mut out = Outcome::default();
    check_artifact(work.path(), ctx.artifact_reps(), &mut out);
    let mut rng = lane_rng(ctx.seed, 4);
    let sources: Vec<u64> = (0..BFS_SOURCES)
        .map(|_| rng.gen_range(0..set.num_vertices()))
        .collect();

    let units = set.total_entries() as u64 * PASSES;
    let slice = |secs: f64| Slice {
        units,
        secs,
        lat_ns: vec![(secs * 1e9) as u64],
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut off = Recorder::off();
    let cpu_before = proc::cpu_us();
    let started = Instant::now();
    let mut rep = 0u32;
    while started.elapsed().as_secs_f64() < ctx.seconds || plain.len() < 3 {
        if ctx.traced() && rep % 2 == 1 {
            traced.push(slice(repetition(&set, &sources, ctx.rec, rep, &mut out)));
        } else {
            plain.push(slice(repetition(&set, &sources, &mut off, rep, &mut out)));
        }
        rep += 1;
    }
    out.set_window(&plain, &traced, proc::cpu_us() - cpu_before);
    drop(set);
    drop(work);
    finish(out, setup_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Sizes;

    #[test]
    fn every_kernel_validates_and_is_spanned() {
        let mut rec = Recorder::new(10_000);
        let mut ctx = Ctx {
            seed: 6,
            seconds: 0.2,
            sizes: Sizes::quick(),
            rec: &mut rec,
        };
        let out = run(&mut ctx);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.e2e.bytes_per_entry > 8.0, "v1 csr");
        assert!(out.e2e.ops_per_s > 0.0 && out.observed.tail_pct == 50);
        let count = |name: &str| rec.spans().iter().filter(|s| s.name == name).count();
        let reps = count("analyze");
        assert!(reps >= 1);
        assert_eq!(count("analyze.bfs"), reps * BFS_SOURCES);
        assert_eq!(count("analyze.cc"), reps * CC_RUNS);
        assert_eq!(count("analyze.pagerank"), reps);
        assert_eq!(count("analyze.census"), reps);
    }
}

//! The five workloads, what each reports, and the pieces they share.
//!
//! Every workload reports the same five end-to-end metrics (the
//! benchmark contract wants one metric set), so the two generic ones
//! are defined per workload:
//!
//! | workload | one *unit* of `ops_per_s` | one *operation* of `p50_us` (and `wl.tail_us`) |
//! |---|---|---|
//! | `stream_csr2` | adjacency entry streamed (stream wall only) | one stream → verify → open cycle |
//! | `analyze` | adjacency entry nominally swept (nnz × passes) | one repetition of the kernel set |
//! | `point_http`, `cluster_routed` | answered request | one request round trip |
//! | `tri_batch` | answered query line | one 128-line `POST /batch` round trip |

use crate::proc;
use crate::stats::{median, summarise, Slice};
use crate::trace::Recorder;
use kron_stream::{verify_shards, ShardSet};
use std::path::Path;
use std::time::Instant;

pub mod analyze;
pub mod serving;
pub mod stream;

/// Input sizes. `full` is what the benchmark measures; `quick` runs the
/// same code at toy size for the self-check mode.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Factor size of `stream_csr2` (`web(n) ⊗ web(n)`).
    pub stream_n: usize,
    /// Factor size of the three serving workloads.
    pub serve_n: usize,
    /// Factor size of `analyze`.
    pub analyze_n: usize,
    /// Factor size of the per-layer probe rig (traced run).
    pub probe_n: usize,
    /// Shards of the stream and serving runs.
    pub shards: usize,
    /// Shards of the analyze run.
    pub analyze_shards: usize,
    /// Distinct requests generated per serving workload (cycled).
    pub request_pool: usize,
    /// Distinct requests of `cluster_routed` (smaller: every traversal
    /// needs a reference answer computed in set-up).
    pub cluster_pool: usize,
    /// Times set-up is repeated; `setup_s` is their median.
    pub setups: usize,
    /// Fewest times the traced run verifies / cold-opens the run
    /// directory (more while they take under half a second in all).
    pub artifact_reps: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            stream_n: 1000,
            serve_n: 600,
            analyze_n: 250,
            probe_n: 200,
            shards: 16,
            analyze_shards: 8,
            request_pool: 65_536,
            cluster_pool: 8192,
            setups: 5,
            artifact_reps: 5,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            stream_n: 60,
            serve_n: 60,
            analyze_n: 60,
            probe_n: 40,
            shards: 4,
            analyze_shards: 4,
            request_pool: 2048,
            cluster_pool: 512,
            setups: 2,
            artifact_reps: 2,
        }
    }
}

/// Warm-up before a serving window, as a share of `--seconds`.
pub const WARMUP_SHARE: f64 = 0.2;

/// Lines per `POST /batch` body in `tri_batch`: enough to amortise the
/// HTTP round trip a hundredfold, few enough that a two-second slice
/// holds ~1000 batches — well inside the p95 rung of the tail ladder
/// (400 to 2000 samples), so a 2× change either way keeps the metric.
pub const BATCH_LINES: usize = 128;

/// What a workload is given.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub sizes: Sizes,
    /// On in the traced run, off otherwise.
    pub rec: &'a mut Recorder,
}

impl Ctx<'_> {
    pub fn traced(&self) -> bool {
        self.rec.is_on()
    }

    /// Set-up repetitions: the traced run reports no `setup_s`.
    fn setups(&self) -> usize {
        if self.traced() {
            1
        } else {
            self.sizes.setups
        }
    }

    /// Artifact validations: only the traced run times them.
    fn artifact_reps(&self) -> usize {
        if self.traced() {
            self.sizes.artifact_reps
        } else {
            1
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub peak_rss_mb: f64,
    pub bytes_per_entry: f64,
}

/// Counts taken on the workload itself (per-layer metrics `wl.*`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Observed {
    /// Operation time at the highest percentile the sample supports, µs.
    pub tail_us: f64,
    /// Which percentile that was.
    pub tail_pct: u32,
    /// Latency samples in the smallest slice.
    pub samples_per_slice: usize,
    /// Units of work in the untraced window.
    pub units: u64,
    /// Row-cache hits / (hits + misses) on the workload's servers.
    pub cache_hit_rate: f64,
    /// Node-to-node row fetches per request.
    pub remote_fetches_per_op: f64,
    pub router_failovers: u64,
    pub router_forward_errors: u64,
    /// `verify_shards --rehash` throughput on the workload's run.
    pub verify_entries_per_s: f64,
    /// `ShardSet::open_verified` time on the workload's run.
    pub open_s: f64,
    /// Process CPU time (load generator included) per unit of work.
    pub cpu_us_per_unit: f64,
    /// Median operation time of the traced operations over that of the
    /// untraced ones of the same window, minus one (traced run only).
    /// Medians, not rates: with a heavy-tailed mix two halves of one
    /// window differ in rate by far more than tracing costs.
    pub trace_overhead_frac: f64,
}

/// What a workload returns.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the operator.
    pub failures: Vec<String>,
    pub e2e: EndToEnd,
    pub observed: Observed,
}

impl Outcome {
    /// Count one check; remember what went wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Fill the window metrics. `plain` are the untraced operations,
    /// which alone feed the end-to-end metrics; `traced` (empty outside
    /// the traced run) only yields the tracing overhead.
    pub fn set_window(&mut self, plain: &[Slice], traced: &[Slice], cpu_us: f64) {
        let units: u64 = plain.iter().map(|s| s.units).sum();
        let all_units = units + traced.iter().map(|s| s.units).sum::<u64>();
        let summary = summarise(plain);
        self.e2e.ops_per_s = summary.units_per_s;
        self.e2e.p50_us = summary.p50_us;
        self.observed.tail_us = summary.tail_us;
        self.observed.tail_pct = summary.tail_pct;
        self.observed.samples_per_slice = summary.min_slice_samples;
        self.observed.units = units;
        self.observed.cpu_us_per_unit = cpu_us / all_units.max(1) as f64;
        if !traced.is_empty() {
            self.observed.trace_overhead_frac = summarise(traced).p50_us / summary.p50_us - 1.0;
        }
    }
}

/// The workloads by name, with the reason each exists (`BENCHMARK.json`
/// carries the same sentences).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "stream_csr2",
        "the paper's headline path: generate, hash, varint-encode, write, then validate and cold-open a product",
    ),
    (
        "point_http",
        "uncached point queries over one connection: engine time is ~1% of the round trip, HTTP and event loop the rest",
    ),
    (
        "tri_batch",
        "128-line triangle batches on hot vertices over v1 shards with a cache that fits: engine, intersection and cache dominate",
    ),
    (
        "cluster_routed",
        "two shard-subset nodes behind a router with a cache smaller than the working set: router hop, remote rows, traversals",
    ),
    (
        "analyze",
        "whole-graph kernels (BFS, CC, PageRank, validated triangle census) scanning every shard of a v1 run",
    ),
];

/// Run one workload by name.
pub fn run(name: &str, ctx: &mut Ctx<'_>) -> Option<Outcome> {
    Some(match name {
        "stream_csr2" => stream::run(ctx),
        "point_http" => serving::run(serving::Kind::PointHttp, ctx),
        "tri_batch" => serving::run(serving::Kind::TriBatch, ctx),
        "cluster_routed" => serving::run(serving::Kind::ClusterRouted, ctx),
        "analyze" => analyze::run(ctx),
        _ => return None,
    })
}

/// Run `setup` `reps` times — more while the total stays under half a
/// second, so a millisecond set-up is not a five-sample median — and
/// return the last result with the median wall time. Each result is
/// dropped (servers stopped, directories removed) before the next
/// repetition starts, outside the timed part.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < reps || (started.elapsed().as_secs_f64() < 0.5 && secs.len() < 200) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), median(&secs))
}

/// Validate the workload's own run directory the way an operator
/// would — `verify_shards --rehash`, then a cold `open_verified` — which
/// also yields `bytes_per_entry`. The traced run repeats both (`reps`
/// times, more while they take under half a second in all: a 20 ms
/// verify is at the mercy of one writeback burst) and reports their
/// medians as `wl.verify_entries_per_s` and `wl.open_s`.
pub fn check_artifact(dir: &Path, reps: usize, out: &mut Outcome) {
    let (mut verify_s, mut open_s) = (Vec::new(), Vec::new());
    let mut entries = 0u128;
    let started = Instant::now();
    while verify_s.len() < reps
        || (reps > 1 && started.elapsed().as_secs_f64() < 0.5 && verify_s.len() < 25)
    {
        let t0 = Instant::now();
        let report = verify_shards(dir, true);
        verify_s.push(t0.elapsed().as_secs_f64());
        out.check(report.is_ok(), || {
            format!("verify_shards: {}", report.as_ref().unwrap_err())
        });
        if let Ok(r) = report {
            entries = r.total_entries;
            out.e2e.bytes_per_entry = r.artifact_bytes as f64 / r.total_entries.max(1) as f64;
        }
        let t0 = Instant::now();
        let set = ShardSet::open_verified(dir);
        open_s.push(t0.elapsed().as_secs_f64());
        out.check(set.is_ok(), || {
            format!("open_verified: {}", set.as_ref().unwrap_err())
        });
    }
    out.observed.verify_entries_per_s = entries as f64 / median(&verify_s);
    out.observed.open_s = median(&open_s);
}

/// Close a workload: the process-wide readings.
pub fn finish(mut out: Outcome, setup_s: f64) -> Outcome {
    out.e2e.setup_s = setup_s;
    out.e2e.peak_rss_mb = proc::peak_rss_mb();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_at_least_as_asked_and_reports_the_median() {
        let mut calls = 0;
        let (last, secs) = repeat_setup(5, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(100));
            calls
        });
        assert_eq!(
            (calls, last),
            (5, 5),
            "0.5 s of set-up needs no extra repetitions"
        );
        assert!((0.1..0.2).contains(&secs));
        let mut calls = 0;
        repeat_setup(2, || calls += 1);
        assert_eq!(calls, 200, "an instant set-up is repeated up to the cap");
    }

    #[test]
    fn outcome_counts_checks() {
        let mut out = Outcome::default();
        out.check(true, || unreachable!());
        out.check(false, || "bad".into());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.failures, ["bad"]);
    }
}

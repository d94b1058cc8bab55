//! PageRank power iteration over a complete shard set.
//!
//! Pull formulation on the symmetric adjacency (self loops count like
//! any other entry): each iteration computes
//! `rank'[v] = (1−d)/n + d·(dangling/n + Σ_{u ∈ N(v)} rank[u]/deg(u))`
//! with damping `d = 0.85`, where `dangling` is the mass parked on
//! zero-row vertices, redistributed uniformly. Iteration stops when the
//! L1 residual `Σ|rank' − rank|` drops to the spec tolerance or the
//! iteration cap is hit.
//!
//! Determinism: per-row sums run left-to-right over the sorted row, the
//! dangling and residual reductions are serial scans in vertex order,
//! and chunk outputs are concatenated in plan order — so the float
//! results (and their shortest-round-trip JSON rendering) are identical
//! for every thread count.

use crate::{check_stop, scan_rows, AnalyzeError, KernelSpec};
use kron_stream::json::Json;
use kron_stream::ShardSet;
use std::sync::atomic::AtomicBool;

/// The damping factor, fixed at the customary value.
const DAMPING: f64 = 0.85;

/// `Σ_{u ∈ cols} share[u]`, summed left to right, where
/// `share[u] = rank[u]·(1/deg(u))` is built once per iteration: one
/// gather per entry instead of two, and the same IEEE products, so every
/// rank is bit-identical to multiplying per entry. A function of its own
/// so the running sum stays in a register: written out inside the scan
/// closure it was spilled to the stack on every entry, which made a
/// PageRank iteration 1.5× slower.
fn pulled_mass(cols: impl Iterator<Item = u64>, share: &[f64]) -> f64 {
    let mut s = 0.0;
    for u in cols {
        s += share[u as usize];
    }
    s
}

/// The PageRank result document: convergence, the dangling count, the
/// rank sum, and the `spec.top_k` top-ranked vertices, rank-descending,
/// vertex id breaking ties.
pub(crate) fn run(
    set: &ShardSet,
    spec: &KernelSpec,
    stop: &AtomicBool,
) -> Result<Json, AnalyzeError> {
    let n = set.num_vertices();
    let len = crate::dense_len(set)?;
    if len == 0 {
        return Err(AnalyzeError::Open(
            "pagerank needs at least one vertex".into(),
        ));
    }
    let nf = len as f64;

    // One shard-ordered pass for 1/deg(v); 0.0 marks a dangling vertex.
    let inv_deg: Vec<f64> = scan_rows(
        set,
        stop,
        |_| true,
        |out: &mut Vec<f64>, _, row| {
            out.push(if row.is_empty() {
                0.0
            } else {
                1.0 / row.len() as f64
            });
            Ok(())
        },
    )?
    .concat();
    let dangling_count = inv_deg.iter().filter(|&&x| x == 0.0).count() as u64;

    let mut rank = vec![1.0 / nf; len];
    let mut iterations = 0u64;
    let mut residual = f64::INFINITY;
    while iterations < spec.max_iters && residual > spec.tol {
        check_stop(stop)?;
        // Serial reductions keep float order fixed across thread counts.
        let dangling_mass: f64 = rank
            .iter()
            .zip(&inv_deg)
            .filter(|&(_, &inv)| inv == 0.0)
            .map(|(&r, _)| r)
            .sum();
        let base = (1.0 - DAMPING) / nf + DAMPING * dangling_mass / nf;
        let share: Vec<f64> = rank.iter().zip(&inv_deg).map(|(&r, &i)| r * i).collect();
        let next: Vec<f64> = scan_rows(
            set,
            stop,
            |_| true,
            |out: &mut Vec<f64>, _, row| {
                out.push(base + DAMPING * pulled_mass(row.cols(), &share));
                Ok(())
            },
        )?
        .concat();
        residual = rank.iter().zip(&next).map(|(&a, &b)| (a - b).abs()).sum();
        rank = next;
        iterations += 1;
    }

    let mut order: Vec<u64> = (0..n).collect();
    order.sort_by(|&a, &b| {
        rank[b as usize]
            .total_cmp(&rank[a as usize])
            .then(a.cmp(&b))
    });
    order.truncate(spec.top_k);
    let top = order.into_iter().map(|v| {
        Json::obj(vec![
            ("vertex", Json::num(v)),
            ("rank", Json::num(rank[v as usize])),
        ])
    });
    Ok(Json::obj(vec![
        ("kernel", Json::str("pagerank")),
        ("vertices", Json::num(n)),
        ("damping", Json::num(DAMPING)),
        ("tol", Json::num(spec.tol)),
        ("max_iters", Json::num(spec.max_iters)),
        ("iterations", Json::num(iterations)),
        // A 0-iteration run never measured a residual; report 0 rather
        // than the infinity sentinel (which is not a JSON number).
        (
            "residual",
            Json::num(if iterations == 0 { 0.0 } else { residual }),
        ),
        ("dangling", Json::num(dangling_count)),
        ("sum", Json::num(rank.iter().sum::<f64>())),
        ("top", Json::Arr(top.collect())),
    ]))
}

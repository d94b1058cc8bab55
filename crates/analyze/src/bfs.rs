//! Direction-optimizing BFS / k-hop over a complete shard set.
//!
//! Classic push/pull with a frontier bitmap: small frontiers *push*
//! (scan each frontier row, collect unvisited neighbors), large
//! frontiers *pull* (scan every unvisited row, test membership against
//! the frontier bitmap). The switch is a deterministic size heuristic —
//! pull once the frontier covers more than 5% of the graph — so a run's
//! level structure, and therefore its result document, never depends on
//! thread count.
//!
//! Kronecker products have no edge directions and every row is resident
//! on a complete set, so the only per-level state is two bitmaps and the
//! sorted frontier vector; levels are expanded chunk-parallel across the
//! shard plan and merged in plan order.

use crate::{bad_column, check_stop, scan_rows, AnalyzeError, BitSet, KernelSpec, LevelRows};
use kron_stream::json::Json;
use kron_stream::ShardSet;
use rayon::prelude::*;
use std::sync::atomic::AtomicBool;

/// Pull once the frontier exceeds n/PULL_DIVISOR vertices.
const PULL_DIVISOR: u64 = 20;

/// The BFS result document: the level structure from `spec.source`, out
/// to `spec.depth` hops when one is set.
pub(crate) fn run(
    set: &ShardSet,
    spec: &KernelSpec,
    stop: &AtomicBool,
) -> Result<Json, AnalyzeError> {
    let n = set.num_vertices();
    let len = crate::dense_len(set)?;
    if spec.source >= n {
        return Err(AnalyzeError::Open(format!(
            "source vertex {} out of range (product has {n} vertices)",
            spec.source
        )));
    }
    let mut visited = BitSet::new(len);
    visited.set(spec.source);
    let mut frontier = vec![spec.source];
    let mut levels = vec![1u64];
    let (mut push_rounds, mut pull_rounds) = (0u64, 0u64);

    loop {
        if spec.depth.is_some_and(|k| levels.len() as u64 > k) {
            break;
        }
        check_stop(stop)?;
        let use_pull = (frontier.len() as u64).saturating_mul(PULL_DIVISOR) > n;
        let candidates = if use_pull {
            pull_rounds += 1;
            pull_round(set, &frontier, &visited, len, stop)?
        } else {
            push_rounds += 1;
            push_round(set, &frontier, &visited, stop)?
        };
        // Serial merge: dedup against the visited bitmap in plan order.
        let mut next: Vec<u64> = Vec::new();
        for v in candidates {
            if visited.set(v) {
                next.push(v);
            }
        }
        if next.is_empty() {
            break;
        }
        next.sort_unstable();
        levels.push(next.len() as u64);
        frontier = next;
    }

    let reached: u64 = levels.iter().sum();
    let mut pairs = vec![
        ("kernel", Json::str("bfs")),
        ("source", Json::num(spec.source)),
    ];
    if let Some(k) = spec.depth {
        pairs.push(("depth_limit", Json::num(k)));
    }
    pairs.extend([
        ("vertices", Json::num(n)),
        ("reached", Json::num(reached)),
        ("unreached", Json::num(n - reached)),
        ("eccentricity", Json::num(levels.len() as u64 - 1)),
        ("levels", Json::Arr(levels.iter().map(Json::num).collect())),
        ("push_rounds", Json::num(push_rounds)),
        ("pull_rounds", Json::num(pull_rounds)),
    ]);
    Ok(Json::obj(pairs))
}

/// Expand the sorted frontier by scanning its own rows, chunk-parallel,
/// through [`LevelRows`]; chunks merge in frontier order.
fn push_round(
    set: &ShardSet,
    frontier: &[u64],
    visited: &BitSet,
    stop: &AtomicBool,
) -> Result<Vec<u64>, AnalyzeError> {
    let pieces = rayon::current_num_threads().max(1) * 4;
    let chunk = frontier.len().div_ceil(pieces).max(1);
    let parts: Vec<Result<Vec<u64>, AnalyzeError>> = frontier
        .chunks(chunk)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|slice| {
            let mut out = Vec::new();
            (set, stop).each_neighbour(slice, |_, u| {
                if !visited.test(u) {
                    out.push(u);
                }
            })?;
            Ok(out)
        })
        .collect();
    let mut merged = Vec::new();
    for part in parts {
        merged.extend(part?);
    }
    Ok(merged)
}

/// A complete set's rows, read in place (a csr2 row is decoded into one
/// buffer per call), for BFS push rounds; the stop flag is polled before
/// every row.
impl LevelRows for (&ShardSet, &AtomicBool) {
    type Error = AnalyzeError;

    fn num_vertices(&self) -> u64 {
        self.0.num_vertices()
    }

    fn bad_column(&self, v: u64, u: u64) -> AnalyzeError {
        bad_column(v, u, self.0.num_vertices())
    }

    fn each_row<F>(&self, frontier: &[u64], mut row: F) -> Result<(), AnalyzeError>
    where
        F: FnMut(u64, &[u64]) -> Result<(), AnalyzeError>,
    {
        let mut buf = Vec::new();
        for &v in frontier {
            check_stop(self.1)?;
            let cols = self
                .0
                .route(v)
                .and_then(|s| self.0.local(s)?.reader.row_into(v, &mut buf));
            let cols = cols.ok_or_else(|| {
                AnalyzeError::Corrupt(format!("vertex {v} has no resident row in a complete set"))
            })?;
            row(v, cols)?;
        }
        Ok(())
    }
}

/// Expand by scanning every unvisited row against the frontier bitmap.
fn pull_round(
    set: &ShardSet,
    frontier: &[u64],
    visited: &BitSet,
    len: usize,
    stop: &AtomicBool,
) -> Result<Vec<u64>, AnalyzeError> {
    let mut front_bits = BitSet::new(len);
    for &v in frontier {
        front_bits.set(v);
    }
    let parts: Vec<Vec<u64>> = scan_rows(
        set,
        stop,
        |v| !visited.test(v),
        |out: &mut Vec<u64>, v, row| {
            if row.cols().any(|u| front_bits.test(u)) {
                out.push(v);
            }
            Ok(())
        },
    )?;
    Ok(parts.concat())
}

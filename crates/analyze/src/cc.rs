//! Connected components by synchronous min-label propagation.
//!
//! Every vertex starts labeled with its own id; each round every vertex
//! adopts the minimum label among itself and its neighbors, reading only
//! the *previous* round's labels (Jacobi style). Min labels propagate
//! one hop per round, so the pass converges in `eccentricity + 1` rounds
//! and — because updates are computed against a frozen snapshot and
//! applied serially in plan order — the round count and every label are
//! independent of thread count.

use crate::{check_stop, scan_rows, AnalyzeError};
use kron_stream::json::Json;
use kron_stream::ShardSet;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;

/// One chunk's propagation sweep: the `(vertex, lowered label)` updates
/// it wants applied, plus how many empty rows it saw.
type ChunkSweep = (Vec<(u64, u64)>, u64);

/// The components result document: counts, the largest size, and the
/// size histogram.
pub(crate) fn run(set: &ShardSet, stop: &AtomicBool) -> Result<Json, AnalyzeError> {
    let n = set.num_vertices();
    crate::dense_len(set)?;
    let mut labels: Vec<u64> = (0..n).collect();
    let mut rounds = 0u64;
    let mut isolated;

    loop {
        check_stop(stop)?;
        let parts: Vec<ChunkSweep> = scan_rows(
            set,
            stop,
            |_| true,
            |(updates, empty): &mut ChunkSweep, v, row| {
                if row.is_empty() {
                    *empty += 1;
                    return Ok(());
                }
                let m = row
                    .cols()
                    .fold(labels[v as usize], |m, u| m.min(labels[u as usize]));
                if m < labels[v as usize] {
                    updates.push((v, m));
                }
                Ok(())
            },
        )?;
        rounds += 1;
        let mut changed = false;
        let mut empty_total = 0u64;
        for (updates, empty) in parts {
            empty_total += empty;
            for (v, m) in updates {
                labels[v as usize] = m;
                changed = true;
            }
        }
        isolated = empty_total;
        if !changed {
            break;
        }
    }

    let mut sizes: BTreeMap<u64, u64> = BTreeMap::new();
    for &l in &labels {
        *sizes.entry(l).or_insert(0) += 1;
    }
    let mut size_histogram: BTreeMap<u64, u64> = BTreeMap::new();
    let mut largest = 0u64;
    for &size in sizes.values() {
        *size_histogram.entry(size).or_insert(0) += 1;
        largest = largest.max(size);
    }
    Ok(Json::obj(vec![
        ("kernel", Json::str("cc")),
        ("vertices", Json::num(n)),
        ("components", Json::num(sizes.len() as u64)),
        ("largest", Json::num(largest)),
        ("isolated", Json::num(isolated)),
        ("rounds", Json::num(rounds)),
        ("size_histogram", crate::histogram_json(&size_histogram)),
    ]))
}

//! Erdős–Rényi random graphs.

use kron_graph::{Graph, GraphBuilder};
use rand::prelude::*;

/// `G(n, p)`: each of the `C(n,2)` possible edges present independently
/// with probability `p`. Uses geometric skipping, so the cost is
/// `O(n + m)` rather than `O(n²)`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if p <= 0.0 || n < 2 {
        return b.build();
    }
    if p >= 1.0 {
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                b.add_edge(i, j);
            }
        }
        return b.build();
    }
    // iterate the upper triangle linearly, skipping geometric gaps
    let total: u64 = (n as u64) * (n as u64 - 1) / 2;
    let log1p = (1.0 - p).ln();
    let mut pos: u64 = 0;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (u.ln() / log1p).floor() as u64;
        pos = match pos.checked_add(skip) {
            Some(x) => x,
            None => break,
        };
        if pos >= total {
            break;
        }
        let (i, j) = unrank_pair(pos, n as u64);
        b.add_edge(i as u32, j as u32);
        pos += 1;
    }
    b.build()
}

/// Map linear index `pos ∈ [0, C(n,2))` to the `pos`-th pair `(i, j)`,
/// `i < j`, in row-major upper-triangle order.
fn unrank_pair(pos: u64, n: u64) -> (u64, u64) {
    // row i starts at offset i*n − i(i+3)/2 ... solve incrementally is
    // O(n); use the closed form via floating sqrt then fix up.
    // edges with first endpoint exactly i: (n - 1 - i); cumulative before
    // row i: sum_{k<i} (n-1-k) = i*(n-1) - i*(i-1)/2
    let cum = |i: u64| {
        if i == 0 {
            0
        } else {
            i * (n - 1) - i * (i - 1) / 2
        }
    };
    // binary search the row
    let (mut lo, mut hi) = (0u64, n - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if cum(mid) <= pos {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let i = lo;
    let j = i + 1 + (pos - cum(i));
    (i, j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrank_covers_all_pairs() {
        let n = 7u64;
        let mut seen = std::collections::HashSet::new();
        for pos in 0..(n * (n - 1) / 2) {
            let (i, j) = unrank_pair(pos, n);
            assert!(i < j && j < n, "pos {pos} -> ({i},{j})");
            assert!(seen.insert((i, j)));
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(erdos_renyi(10, 0.0, 1).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 1).num_edges(), 45);
    }

    #[test]
    fn gnp_density_plausible() {
        let g = erdos_renyi(200, 0.1, 42);
        let expected = 0.1 * (200.0 * 199.0 / 2.0);
        let m = g.num_edges() as f64;
        assert!(
            (m - expected).abs() < 5.0 * (expected * 0.9).sqrt(),
            "m={m}, expected≈{expected}"
        );
        assert_eq!(g.num_self_loops(), 0);
    }

    #[test]
    fn gnp_deterministic_in_seed() {
        assert_eq!(erdos_renyi(50, 0.2, 7), erdos_renyi(50, 0.2, 7));
        assert_ne!(erdos_renyi(50, 0.2, 7), erdos_renyi(50, 0.2, 8));
    }
}

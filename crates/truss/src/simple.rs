//! The paper's "simple (yet inefficient) algorithm" for the truss
//! decomposition, transcribed from §III-D:
//!
//! > Set `A′ ← A`. Repeat the following for `κ = 3, …, n_A`, or until there
//! > are no more edges. Compute `Δ_{A′}`. Remove any edge that has less
//! > than `(κ − 2)` triangles and update `A′`. Repeat these edge removal
//! > phases for fixed `κ`, recomputing `Δ_{A′}`, removing, and updating
//! > `A′` until no edges are removed. Then, set `T^(κ)_A` equal to all
//! > remaining edges in `A′`, increment `κ`, and repeat edge removal phases
//! > until done.
//!
//! Kept verbatim as the correctness oracle for [`crate::truss_decomposition`]
//! and as the baseline of the truss ablation bench.

use crate::{ktruss_subgraph, TrussDecomposition};
use kron_graph::Graph;

/// Truss decomposition by repeated `Δ` recomputation (the paper's §III-D
/// procedure). Self loops are ignored.
pub fn truss_decomposition_simple(g: &Graph) -> TrussDecomposition {
    let clean = g.without_self_loops();
    let edges: Vec<(u32, u32)> = clean.edges().collect();
    let mut trussness = vec![2u32; edges.len()];
    let mut cur = clean.clone();
    let mut kappa = 3u32;
    while cur.num_edges() > 0 {
        // removal phases for fixed κ
        cur = ktruss_subgraph(&cur, kappa);
        // survivors are in the κ-truss
        for (u, v) in cur.edges() {
            let id = edges
                .binary_search(&(u.min(v), u.max(v)))
                .expect("survivor edge is in the original graph");
            trussness[id] = kappa;
        }
        kappa += 1;
    }
    TrussDecomposition { edges, trussness }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truss_decomposition;
    use rand::prelude::*;

    #[test]
    fn matches_peeling_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..25 {
            let n = rng.gen_range(3..22);
            let p = rng.gen_range(0.1..0.7);
            let edges: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
                .filter(|_| rng.gen_bool(p))
                .collect();
            let g = Graph::from_edges(n, edges);
            let simple = truss_decomposition_simple(&g);
            let peel = truss_decomposition(&g);
            assert_eq!(simple, peel, "trial {trial}, n={n}");
        }
    }

    #[test]
    fn matches_peeling_with_loops() {
        let g = Graph::from_edges(4, [(0, 0), (0, 1), (0, 2), (1, 2), (2, 3), (3, 3)]);
        assert_eq!(truss_decomposition_simple(&g), truss_decomposition(&g));
    }

    #[test]
    fn kappa_truss_sets_are_nested() {
        let mut rng = StdRng::seed_from_u64(78);
        let n = 15;
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        let g = Graph::from_edges(n, edges);
        let d = truss_decomposition_simple(&g);
        let mut prev = usize::MAX;
        for k in 2..=d.max_trussness() {
            let size = d.edges_in_truss(k).count();
            assert!(size <= prev, "T({k}) larger than T({})", k - 1);
            prev = size;
        }
    }
}

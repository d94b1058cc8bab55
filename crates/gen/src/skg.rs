//! Stochastic Kronecker graphs (Leskovec et al.) — the generator class of
//! the paper's references \[4\]/\[7\], kept as the Rem. 1 baseline: edges are
//! sampled independently from `P^{⊗k}`, which yields *few* triangles,
//! unlike the nonstochastic products this workspace is about.
//!
//! [`stochastic_kronecker`] is the faithful **Bernoulli** model: edge
//! `(u, v)` present independently with probability
//! `∏_level P[u_bit][v_bit]`. This is the model Seshadhri–Pinar–Kolda
//! analyze when showing SKGs are triangle-poor (the paper's Rem. 1). Cost
//! `O(n²·k)` — fine for factor-sized graphs.

use kron_graph::{Graph, GraphBuilder};
use rand::prelude::*;

/// Bernoulli stochastic Kronecker graph from a 2×2 initiator of
/// probabilities (entries in `[0, 1]`), `k`-th Kronecker power
/// (`n = 2^k`). The result is symmetrized (undirected) and loop-free.
pub fn stochastic_kronecker(initiator: [[f64; 2]; 2], k: u32, seed: u64) -> Graph {
    assert!((1..24).contains(&k), "k out of range for the O(n²) sampler");
    assert!(
        initiator.iter().flatten().all(|p| (0.0..=1.0).contains(p)),
        "initiator entries must be probabilities"
    );
    let n = 1usize << k;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        // probability of (u, v) is a product over bit pairs; iterate the
        // upper triangle only and symmetrize via the builder
        for v in (u + 1)..n as u32 {
            let mut p = 1.0f64;
            for level in (0..k).rev() {
                let ub = ((u >> level) & 1) as usize;
                let vb = ((v >> level) & 1) as usize;
                p *= initiator[ub][vb];
                if p < 1e-12 {
                    break;
                }
            }
            if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_triangles::count_triangles;

    /// Leskovec et al.'s fitted-initiator ballpark.
    const FITTED: [[f64; 2]; 2] = [[0.99, 0.54], [0.54, 0.13]];

    #[test]
    fn bernoulli_shape() {
        let g = stochastic_kronecker(FITTED, 10, 3);
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_self_loops(), 0);
        // expected nnz ≈ (Σ initiator)^k = 2.2^10 ≈ 2656 (directed incl.
        // diagonal); the undirected count lands in that ballpark
        let m = g.num_edges();
        assert!(m > 500 && m < 3000, "m = {m}");
    }

    #[test]
    fn remark_1_few_triangles() {
        // Rem. 1 via Seshadhri–Pinar–Kolda: the Bernoulli SKG has very low
        // triangle density. Triangle-rich graphs at this scale (e.g. the
        // paper's web factor) carry several triangles per edge; the SKG
        // carries far less than one. Full comparison: expt_rem1_stochastic.
        let g = stochastic_kronecker(FITTED, 12, 9);
        let tau = count_triangles(&g).triangles;
        assert!(
            (tau as f64) < 0.3 * g.num_edges() as f64,
            "tau={tau}, m={}",
            g.num_edges()
        );
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(
            stochastic_kronecker(FITTED, 8, 1),
            stochastic_kronecker(FITTED, 8, 1)
        );
    }

    #[test]
    fn skewed_initiator_gives_heavy_tail() {
        let g = stochastic_kronecker(FITTED, 12, 4);
        let mean_d = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(g.max_degree() as f64 > 5.0 * mean_d);
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn bad_initiator_rejected() {
        let _ = stochastic_kronecker([[1.5, 0.2], [0.2, 0.1]], 4, 0);
    }
}

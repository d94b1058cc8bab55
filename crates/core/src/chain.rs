//! Multi-factor Kronecker chains `C = A₁ ⊗ A₂ ⊗ ⋯ ⊗ A_k` — the natural
//! extension of the paper's two-factor theorems, used by the Graph500-scale
//! generators the paper cites (\[3\] builds graphs from many small factors).
//!
//! For loop-free undirected factors, associativity of `⊗` and Thm. 1/2
//! give by induction:
//!
//! * `d_C = d_{A₁} ⊗ ⋯ ⊗ d_{A_k}`;
//! * `t_C = 2^{k−1} · t_{A₁} ⊗ ⋯ ⊗ t_{A_k}`;
//! * `Δ_C = Δ_{A₁} ⊗ ⋯ ⊗ Δ_{A_k}`;
//! * `τ(C) = 6^{k−1} · τ(A₁)⋯τ(A_k)`.
//!
//! Only the loop-free case is supported here (the general self-loop chain
//! has `4^{k-1}` correction terms; use nested [`crate::KronProduct`]s if
//! you need loops).

use crate::KronError;
use kron_graph::Graph;
use kron_triangles::{count_triangles, edge_participation, vertex_participation};

/// An implicit `k`-factor Kronecker product of loop-free undirected
/// graphs. Vertex ids are `u128` (mixed-radix over the factor orders,
/// rightmost factor fastest — consistent with `A ⊗ (B ⊗ C)`).
pub struct KronChain {
    factors: Vec<Graph>,
    t: Vec<Vec<u64>>,
    delta: Vec<Vec<u64>>, // slot-aligned per factor
    tau: Vec<u64>,
}

impl KronChain {
    /// Build a chain from loop-free factors.
    ///
    /// # Errors
    /// [`KronError::SelfLoopsPresent`] if any factor has a self loop.
    pub fn new(factors: Vec<Graph>) -> Result<Self, KronError> {
        assert!(!factors.is_empty(), "need at least one factor");
        for g in &factors {
            if g.num_self_loops() > 0 {
                return Err(KronError::SelfLoopsPresent {
                    factor: "chain factor",
                    count: g.num_self_loops(),
                });
            }
        }
        let t = factors.iter().map(vertex_participation).collect();
        let delta = factors.iter().map(edge_participation).collect();
        let tau = factors
            .iter()
            .map(|g| count_triangles(g).triangles)
            .collect();
        Ok(Self {
            factors,
            t,
            delta,
            tau,
        })
    }

    /// The factors.
    pub fn factors(&self) -> &[Graph] {
        &self.factors
    }

    /// `n_C = ∏ n_i`.
    pub fn num_vertices(&self) -> u128 {
        self.factors
            .iter()
            .map(|g| g.num_vertices() as u128)
            .product()
    }

    /// Adjacency non-zeros `∏ nnz_i`; the edge count is half this (the
    /// chain is loop-free).
    pub fn nnz(&self) -> u128 {
        self.factors.iter().map(|g| g.nnz() as u128).product()
    }

    /// Undirected edge count of `C`.
    pub fn num_edges(&self) -> u128 {
        self.nnz() / 2
    }

    /// Split a product vertex into per-factor coordinates (mixed radix,
    /// rightmost factor fastest).
    pub fn split(&self, mut p: u128) -> Vec<u32> {
        let mut coords = vec![0u32; self.factors.len()];
        for (idx, g) in self.factors.iter().enumerate().rev() {
            let n = g.num_vertices() as u128;
            coords[idx] = (p % n) as u32;
            p /= n;
        }
        debug_assert_eq!(p, 0, "product index out of range");
        coords
    }

    /// Compose per-factor coordinates into a product vertex.
    pub fn compose(&self, coords: &[u32]) -> u128 {
        assert_eq!(
            coords.len(),
            self.factors.len(),
            "one coordinate per factor"
        );
        let mut p = 0u128;
        for (g, &c) in self.factors.iter().zip(coords) {
            debug_assert!((c as usize) < g.num_vertices());
            p = p * g.num_vertices() as u128 + c as u128;
        }
        p
    }

    /// Degree `d_C(p) = ∏ d_i(coord_i)`.
    pub fn degree(&self, p: u128) -> u128 {
        self.split(p)
            .iter()
            .zip(&self.factors)
            .map(|(&c, g)| g.degree(c) as u128)
            .product()
    }

    /// Whether `{p, q}` is an edge of `C`.
    pub fn has_edge(&self, p: u128, q: u128) -> bool {
        self.split(p)
            .iter()
            .zip(self.split(q))
            .zip(&self.factors)
            .all(|((&i, j), g)| g.has_edge(i, j))
    }

    /// Triangle participation `t_C(p) = 2^{k−1} · ∏ t_i(coord_i)`.
    pub fn vertex_triangles(&self, p: u128) -> u128 {
        let coords = self.split(p);
        let prod: u128 = coords
            .iter()
            .zip(&self.t)
            .map(|(&c, t)| t[c as usize] as u128)
            .product();
        (1u128 << (self.factors.len() - 1)) * prod
    }

    /// Edge triangle participation `Δ_C(p,q) = ∏ Δ_i(edge_i)`, or `None`
    /// if `{p, q}` is not an edge.
    pub fn edge_triangles(&self, p: u128, q: u128) -> Option<u128> {
        let (cp, cq) = (self.split(p), self.split(q));
        let mut prod = 1u128;
        for ((&i, &j), (g, d)) in cp
            .iter()
            .zip(cq.iter())
            .zip(self.factors.iter().zip(&self.delta))
        {
            let slot = g.edge_slot(i, j)?;
            prod *= d[slot] as u128;
        }
        Some(prod)
    }

    /// Total triangles `τ(C) = 6^{k−1} · ∏ τ(A_i)`.
    pub fn total_triangles(&self) -> u128 {
        let prod: u128 = self.tau.iter().map(|&t| t as u128).product();
        6u128.pow(self.factors.len() as u32 - 1) * prod
    }

    /// Materialize by folding explicit products left to right (guarded).
    pub fn materialize(&self, limit: u128) -> Result<Graph, KronError> {
        let entries = self.nnz();
        if entries > limit {
            return Err(KronError::TooLargeToMaterialize { entries, limit });
        }
        let mut acc = self.factors[0].to_csr();
        for g in &self.factors[1..] {
            acc = acc.kron(&g.to_csr());
        }
        Ok(Graph::from_csr(&acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_gen::deterministic::{clique, cycle, hub_cycle};

    #[test]
    fn three_factor_chain_matches_materialization() {
        let chain = KronChain::new(vec![clique(3), cycle(4), hub_cycle()]).unwrap();
        let g = chain.materialize(1 << 24).unwrap();
        assert_eq!(g.num_vertices() as u128, chain.num_vertices());
        assert_eq!(g.num_edges() as u128, chain.num_edges());
        let t = vertex_participation(&g);
        for p in 0..chain.num_vertices() {
            assert_eq!(t[p as usize] as u128, chain.vertex_triangles(p), "t({p})");
            assert_eq!(g.degree(p as u32) as u128, chain.degree(p));
        }
        assert_eq!(
            count_triangles(&g).triangles as u128,
            chain.total_triangles()
        );
        let delta = edge_participation(&g);
        for (u, v) in g.edges() {
            let slot = g.edge_slot(u, v).unwrap();
            assert_eq!(
                Some(delta[slot] as u128),
                chain.edge_triangles(u as u128, v as u128)
            );
        }
    }

    #[test]
    fn chain_of_one_is_identity() {
        let chain = KronChain::new(vec![hub_cycle()]).unwrap();
        assert_eq!(chain.num_vertices(), 5);
        assert_eq!(chain.total_triangles(), 4);
        assert_eq!(chain.vertex_triangles(0), 4);
    }

    #[test]
    fn split_compose_roundtrip() {
        let chain = KronChain::new(vec![clique(3), clique(4), clique(5)]).unwrap();
        for p in 0..chain.num_vertices() {
            assert_eq!(chain.compose(&chain.split(p)), p);
        }
        // index order: rightmost fastest
        assert_eq!(chain.compose(&[0, 0, 1]), 1);
        assert_eq!(chain.compose(&[0, 1, 0]), 5);
        assert_eq!(chain.compose(&[1, 0, 0]), 20);
    }

    #[test]
    fn tau_grows_as_six_to_k() {
        // K3 chain: τ(K3) = 1 so τ(chain of k) = 6^{k−1}
        for k in 1..=4usize {
            let chain = KronChain::new(vec![clique(3); k]).unwrap();
            assert_eq!(chain.total_triangles(), 6u128.pow(k as u32 - 1));
        }
    }

    #[test]
    fn loops_rejected() {
        let j = clique(3).with_all_self_loops();
        assert!(matches!(
            KronChain::new(vec![clique(3), j]),
            Err(KronError::SelfLoopsPresent { .. })
        ));
    }

    #[test]
    fn four_factor_associativity_against_pairwise() {
        // (A⊗B)⊗(C⊗D) materialized pairwise must equal the chain
        let factors = vec![clique(3), cycle(3), clique(3), cycle(4)];
        let chain = KronChain::new(factors.clone()).unwrap();
        let ab = factors[0].to_csr().kron(&factors[1].to_csr());
        let cd = factors[2].to_csr().kron(&factors[3].to_csr());
        let g = Graph::from_csr(&ab.kron(&cd));
        assert_eq!(chain.materialize(1 << 26).unwrap(), g);
    }
}

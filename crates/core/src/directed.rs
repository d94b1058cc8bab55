//! The directed Kronecker product of §IV: `C = A ⊗ B` with `A` directed
//! (loop-free) and `B` undirected (possibly with loops).
//!
//! Under these assumptions the reciprocal/directed decomposition of the
//! product factorizes — `C_r = A_r ⊗ B`, `C_d = A_d ⊗ B` — and every one of
//! the fifteen directed-triangle statistics obeys
//!
//! * Thm. 4: `t^(τ)_C = t^(τ)_A ⊗ diag(B³)`;
//! * Thm. 5: `Δ^(τ)_C = Δ^(τ)_A ⊗ (B ∘ B²)`.

use crate::factor_stats::FactorTerms;
use crate::{KronError, ProductIndexer};
use kron_graph::{DiGraph, Graph};
use kron_triangles::directed::{
    directed_edge_participation, directed_vertex_participation, DirEdgeCounts, DirEdgeType,
    DirVertexCounts, DirVertexType,
};

/// The implicit directed Kronecker product `C = A ⊗ B`.
pub struct KronDirectedProduct {
    a: DiGraph,
    b: Graph,
    ix: ProductIndexer,
    /// `t^(τ)_A` for all fifteen types.
    ta: DirVertexCounts,
    /// `Δ^(τ)_A` for all fifteen types.
    da: DirEdgeCounts,
    /// `diag(B³)`, slot-aligned `(B ∘ B²)` and the row lengths of `B`.
    vb: FactorTerms,
}

impl KronDirectedProduct {
    /// Build the implicit directed product.
    ///
    /// # Errors
    /// [`KronError::SelfLoopsPresent`] if `A` has self loops (the standing
    /// assumption of Thm. 4/5; `B` *may* have loops).
    pub fn new(a: DiGraph, b: Graph) -> Result<Self, KronError> {
        if a.num_self_loops() > 0 {
            return Err(KronError::SelfLoopsPresent {
                factor: "A",
                count: a.num_self_loops(),
            });
        }
        let ix = ProductIndexer::new(a.num_vertices(), b.num_vertices());
        let ta = directed_vertex_participation(&a);
        let da = directed_edge_participation(&a);
        let vb = FactorTerms::compute(&b);
        Ok(Self {
            a,
            b,
            ix,
            ta,
            da,
            vb,
        })
    }

    /// The factors `(A, B)`.
    pub fn factors(&self) -> (&DiGraph, &Graph) {
        (&self.a, &self.b)
    }

    /// The index maps.
    pub fn indexer(&self) -> ProductIndexer {
        self.ix
    }

    /// `n_C = n_A·n_B`.
    pub fn num_vertices(&self) -> u64 {
        self.ix.num_vertices()
    }

    /// Arcs of `C`: `nnz(A)·nnz(B)`.
    pub fn num_arcs(&self) -> u128 {
        self.a.num_arcs() as u128 * self.b.nnz() as u128
    }

    /// Out-degree `d^out_C(p) = d^out_A(i)·(B·1)_k`.
    pub fn out_degree(&self, p: u64) -> u64 {
        let (i, k) = self.ix.split(p);
        self.a.out_degree(i) * self.vb.rowlen[k as usize]
    }

    /// In-degree `d^in_C(p) = d^in_A(i)·(B·1)_k`.
    pub fn in_degree(&self, p: u64) -> u64 {
        let (i, k) = self.ix.split(p);
        self.a.in_degree(i) * self.vb.rowlen[k as usize]
    }

    /// Whether the arc `p → q` exists in `C`.
    pub fn has_arc(&self, p: u64, q: u64) -> bool {
        let (i, k) = self.ix.split(p);
        let (j, l) = self.ix.split(q);
        self.a.has_arc(i, j) && self.b.has_edge(k, l)
    }

    /// Thm. 4: the number of directed triangles of type `ty` at product
    /// vertex `p`: `t^(τ)_A(i) · diag(B³)_k`.
    pub fn vertex_type_count(&self, p: u64, ty: DirVertexType) -> u64 {
        let (i, k) = self.ix.split(p);
        self.ta.get(ty)[i as usize] * self.vb.diag3[k as usize]
    }

    /// Thm. 5: the number of directed triangles of type `ty` at product
    /// entry `(p, q)`: `Δ^(τ)_A(i, j) · (B ∘ B²)(k, l)`. Zero when either
    /// factor entry is zero or absent.
    pub fn edge_type_count(&self, p: u64, q: u64, ty: DirEdgeType) -> u64 {
        let (i, k) = self.ix.split(p);
        let (j, l) = self.ix.split(q);
        let da = self.da.get(ty).get(i as usize, j as usize);
        if da == 0 {
            return 0;
        }
        match self.b.edge_slot(k, l) {
            Some(slot) => da * self.vb.had2[slot],
            None => 0,
        }
    }

    /// Total count of type-`ty` triangles over all product vertices:
    /// `(Σ t^(τ)_A)·(Σ diag(B³))`.
    pub fn vertex_type_total(&self, ty: DirVertexType) -> u128 {
        self.ta.total(ty) as u128 * self.vb.diag3.iter().map(|&x| x as u128).sum::<u128>()
    }

    /// Materialize `C` as a concrete [`DiGraph`] for validation (guarded by
    /// `limit` adjacency entries).
    pub fn materialize(&self, limit: u128) -> Result<DiGraph, KronError> {
        let entries = self.num_arcs();
        if entries > limit || self.num_vertices() > u32::MAX as u64 {
            return Err(KronError::TooLargeToMaterialize { entries, limit });
        }
        let mut arcs = Vec::with_capacity(entries as usize);
        for (i, j) in self.a.arcs() {
            for (k, l) in self.b.adjacency_entries() {
                arcs.push((self.ix.compose(i, k) as u32, self.ix.compose(j, l) as u32));
            }
        }
        Ok(DiGraph::from_arcs(self.num_vertices() as usize, arcs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_digraph(rng: &mut StdRng, n: usize, p: f64) -> DiGraph {
        DiGraph::from_arcs(
            n,
            (0..n as u32)
                .flat_map(|i| (0..n as u32).map(move |j| (i, j)))
                .filter(|&(i, j)| i != j && rng.gen_bool(p)),
        )
    }

    fn random_graph(rng: &mut StdRng, n: usize, p: f64, loop_p: f64) -> Graph {
        let mut edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(p))
            .collect();
        for v in 0..n as u32 {
            if rng.gen_bool(loop_p) {
                edges.push((v, v));
            }
        }
        Graph::from_edges(n, edges)
    }

    fn check(a: DiGraph, b: Graph) {
        let c = KronDirectedProduct::new(a, b).unwrap();
        let g = c.materialize(1 << 22).unwrap();
        assert_eq!(g.num_arcs() as u128, c.num_arcs());
        // the product of a loop-free A is loop-free, so the taxonomy applies
        let direct_v = directed_vertex_participation(&g);
        let direct_e = directed_edge_participation(&g);
        for ty in DirVertexType::ALL {
            for p in 0..c.num_vertices() {
                assert_eq!(
                    direct_v.get(ty)[p as usize],
                    c.vertex_type_count(p, ty),
                    "Thm 4, {ty:?} at {p}"
                );
            }
            assert_eq!(
                direct_v.total(ty) as u128,
                c.vertex_type_total(ty),
                "Thm 4 total, {ty:?}"
            );
        }
        for ty in DirEdgeType::ALL {
            let m = direct_e.get(ty);
            for (p, q, v) in m.iter() {
                assert_eq!(
                    v,
                    c.edge_type_count(p as u64, q as u64, ty),
                    "Thm 5, {ty:?} at ({p},{q})"
                );
            }
            // and spot-check zeros
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..30 {
                let p = rng.gen_range(0..c.num_vertices());
                let q = rng.gen_range(0..c.num_vertices());
                assert_eq!(m.get(p as usize, q as usize), c.edge_type_count(p, q, ty));
            }
        }
        // degrees
        for p in 0..c.num_vertices() {
            assert_eq!(g.out_degree(p as u32), c.out_degree(p));
            assert_eq!(g.in_degree(p as u32), c.in_degree(p));
        }
        // decomposition factorizes: C_r = A_r ⊗ B, C_d = A_d ⊗ B
        let (a, b) = c.factors();
        let cr = g.reciprocal_part();
        assert_eq!(
            cr.nnz() as u128,
            a.reciprocal_part().nnz() as u128 * b.nnz() as u128
        );
        let cd = g.directed_part();
        assert_eq!(
            cd.num_arcs() as u128,
            a.directed_part().num_arcs() as u128 * b.nnz() as u128
        );
    }

    #[test]
    fn thm4_thm5_loop_free_b() {
        let mut rng = StdRng::seed_from_u64(81);
        for _ in 0..4 {
            let a = random_digraph(&mut rng, 6, 0.4);
            let b = random_graph(&mut rng, 5, 0.5, 0.0);
            check(a, b);
        }
    }

    #[test]
    fn thm4_thm5_loopy_b() {
        let mut rng = StdRng::seed_from_u64(82);
        for _ in 0..4 {
            let a = random_digraph(&mut rng, 6, 0.4);
            let b = random_graph(&mut rng, 5, 0.5, 0.5);
            check(a, b);
        }
    }

    #[test]
    fn directed_cycle_times_triangle() {
        // A = directed 3-cycle (one st+ per vertex), B = K3:
        // diag(B³) = 2 everywhere, so every product vertex has 2 st+
        // triangles and nothing else.
        let a = DiGraph::from_arcs(3, [(0, 1), (1, 2), (2, 0)]);
        let b = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let c = KronDirectedProduct::new(a, b).unwrap();
        for p in 0..9 {
            assert_eq!(c.vertex_type_count(p, DirVertexType::STp), 2);
            assert_eq!(c.vertex_type_count(p, DirVertexType::UUo), 0);
        }
    }

    #[test]
    fn loops_in_a_rejected() {
        let a = DiGraph::from_arcs(2, [(0, 0), (0, 1)]);
        let b = Graph::from_edges(2, [(0, 1)]);
        assert!(matches!(
            KronDirectedProduct::new(a, b),
            Err(KronError::SelfLoopsPresent { factor: "A", .. })
        ));
    }
}

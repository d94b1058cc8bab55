//! The vertex-labeled Kronecker product of §V: `C = A ⊗ B` with `A`
//! labeled and loop-free, `B` unlabeled and undirected (loops allowed).
//!
//! Labels are inherited from the left factor — `f_C(p) = f_A(α(p))` — which
//! makes the label filters factorize (`Π_{C,q} = Π_{A,q} ⊗ I_B`) and yields
//!
//! * Thm. 6: `t^(τ)_C = t^(τ)_A ⊗ diag(B³)`;
//! * Thm. 7: `Δ^(τ)_C = Δ^(τ)_A ⊗ (B ∘ B²)`
//!
//! for every labeled triangle type `τ = (q1, q2, q3)`.

use crate::factor_stats::FactorTerms;
use crate::{KronError, ProductIndexer};
use kron_graph::{Graph, Label, LabeledGraph};
use kron_triangles::labeled::{
    labeled_edge_participation, labeled_vertex_participation, LabeledEdgeCounts,
    LabeledVertexCounts,
};

/// The implicit labeled Kronecker product `C = A ⊗ B`.
pub struct KronLabeledProduct {
    a: LabeledGraph,
    b: Graph,
    ix: ProductIndexer,
    ta: LabeledVertexCounts,
    da: LabeledEdgeCounts,
    vb: FactorTerms,
}

impl KronLabeledProduct {
    /// Build the implicit labeled product.
    ///
    /// # Errors
    /// [`KronError::SelfLoopsPresent`] if `A` has self loops (standing
    /// assumption of Thm. 6/7; `B` may have loops).
    pub fn new(a: LabeledGraph, b: Graph) -> Result<Self, KronError> {
        if a.graph().num_self_loops() > 0 {
            return Err(KronError::SelfLoopsPresent {
                factor: "A",
                count: a.graph().num_self_loops(),
            });
        }
        let ix = ProductIndexer::new(a.graph().num_vertices(), b.num_vertices());
        let ta = labeled_vertex_participation(&a);
        let da = labeled_edge_participation(&a);
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
    pub fn factors(&self) -> (&LabeledGraph, &Graph) {
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

    /// The inherited label of product vertex `p`: `f_C(p) = f_A(α(p))`.
    pub fn label(&self, p: u64) -> Label {
        self.a.label(self.ix.left(p))
    }

    /// Thm. 6: labeled triangle participation of type `(q1, q2, q3)` at
    /// product vertex `p`: `t^(τ)_A(i) · diag(B³)_k`.
    pub fn vertex_type_count(&self, p: u64, q1: Label, q2: Label, q3: Label) -> u64 {
        let (i, k) = self.ix.split(p);
        self.ta.get(q1, q2, q3)[i as usize] * self.vb.diag3[k as usize]
    }

    /// Thm. 7: labeled triangle participation of type `(q1, q2, q3)` at
    /// product entry `(p, q)`: `Δ^(τ)_A(i, j) · (B ∘ B²)(k, l)`.
    pub fn edge_type_count(&self, p: u64, q: u64, q1: Label, q2: Label, q3: Label) -> u64 {
        let (i, k) = self.ix.split(p);
        let (j, l) = self.ix.split(q);
        let da = self.da.get(q1, q2, q3).get(i as usize, j as usize);
        if da == 0 {
            return 0;
        }
        match self.b.edge_slot(k, l) {
            Some(slot) => da * self.vb.had2[slot],
            None => 0,
        }
    }

    /// Materialize `C` as a concrete [`LabeledGraph`] for validation
    /// (guarded by `limit` adjacency entries).
    pub fn materialize(&self, limit: u128) -> Result<LabeledGraph, KronError> {
        let entries = self.a.graph().nnz() as u128 * self.b.nnz() as u128;
        if entries > limit || self.num_vertices() > u32::MAX as u64 {
            return Err(KronError::TooLargeToMaterialize { entries, limit });
        }
        let mut edges = Vec::new();
        for (i, j) in self.a.graph().adjacency_entries() {
            for (k, l) in self.b.adjacency_entries() {
                let (p, q) = (self.ix.compose(i, k), self.ix.compose(j, l));
                if p <= q {
                    edges.push((p as u32, q as u32));
                }
            }
        }
        let graph = Graph::from_edges(self.num_vertices() as usize, edges);
        let labels = (0..self.num_vertices()).map(|p| self.label(p)).collect();
        Ok(LabeledGraph::new(graph, labels, self.a.num_labels()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_labeled(rng: &mut StdRng, n: usize, p: f64, l: usize) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(p))
            .collect();
        let labels = (0..n).map(|_| rng.gen_range(0..l as Label)).collect();
        LabeledGraph::new(Graph::from_edges(n, edges), labels, l)
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

    fn check(a: LabeledGraph, b: Graph) {
        let nl = a.num_labels();
        let c = KronLabeledProduct::new(a, b).unwrap();
        let g = c.materialize(1 << 22).unwrap();
        // inherited labels
        for p in 0..c.num_vertices() {
            assert_eq!(g.label(p as u32), c.label(p));
        }
        let direct_v = labeled_vertex_participation(&g);
        let direct_e = labeled_edge_participation(&g);
        for q1 in 0..nl as Label {
            for q2 in 0..nl as Label {
                for q3 in q2..nl as Label {
                    let dv = direct_v.get(q1, q2, q3);
                    for p in 0..c.num_vertices() {
                        assert_eq!(
                            dv[p as usize],
                            c.vertex_type_count(p, q1, q2, q3),
                            "Thm 6, ({q1},{q2},{q3}) at {p}"
                        );
                    }
                }
                for q3 in 0..nl as Label {
                    let m = direct_e.get(q1, q2, q3);
                    for (p, q, v) in m.iter() {
                        assert_eq!(
                            v,
                            c.edge_type_count(p as u64, q as u64, q1, q2, q3),
                            "Thm 7, ({q1},{q2},{q3}) at ({p},{q})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn thm6_thm7_loop_free_b() {
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..3 {
            let a = random_labeled(&mut rng, 6, 0.5, 3);
            let b = random_graph(&mut rng, 5, 0.5, 0.0);
            check(a, b);
        }
    }

    #[test]
    fn thm6_thm7_loopy_b() {
        let mut rng = StdRng::seed_from_u64(92);
        for _ in 0..3 {
            let a = random_labeled(&mut rng, 6, 0.5, 2);
            let b = random_graph(&mut rng, 5, 0.5, 0.5);
            check(a, b);
        }
    }

    #[test]
    fn rgb_triangle_times_k3() {
        // A: triangle labeled r,g,b; B = K3 (diag(B³) = 2): every product
        // vertex sits in exactly 2 triangles of its inherited type.
        let a = LabeledGraph::new(
            Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]),
            vec![0, 1, 2],
            3,
        );
        let b = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let c = KronLabeledProduct::new(a, b).unwrap();
        let ix = c.indexer();
        for k in 0..3u32 {
            let p = ix.compose(0, k);
            assert_eq!(c.label(p), 0);
            assert_eq!(c.vertex_type_count(p, 0, 1, 2), 2);
            assert_eq!(c.vertex_type_count(p, 0, 0, 1), 0);
        }
    }

    #[test]
    fn loops_in_a_rejected() {
        let a = LabeledGraph::new(Graph::from_edges(2, [(0, 0), (0, 1)]), vec![0, 0], 1);
        let b = Graph::from_edges(2, [(0, 1)]);
        assert!(matches!(
            KronLabeledProduct::new(a, b),
            Err(KronError::SelfLoopsPresent { .. })
        ));
    }
}

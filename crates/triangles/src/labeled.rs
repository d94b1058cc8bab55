//! Vertex-labeled triangle participation (the paper's §V, Fig. 6).
//!
//! Types are triples `(q1, q2, q3)`:
//!
//! * at a **vertex** (Def. 13): the center carries `q1`; the other two
//!   corners carry `{q2, q3}` (unordered — we canonicalize `q2 ≤ q3`).
//!   There are `|L| · C(|L|+1, 2)` vertex types.
//! * at an **edge** (Def. 14): the entry `(i, j)` of `Δ^(q1,q2,q3)` is
//!   nonzero for edges with `f(i) = q2`, `f(j) = q1`, counting common
//!   neighbors labeled `q3`; `Δ^(q1,q2,q3)ᵗ = Δ^(q2,q1,q3)`.
//!
//! Each statistic is implemented twice: by direct triangle enumeration and
//! by the label-filtered matrix products `Π_q A Π_r` of Def. 12, and the
//! two are cross-validated in tests. Def. 13's printed condition contains a
//! typo (`q2 = q3` on both branches); the `½` factor belongs to the
//! `q2 = q3` case, which the matrix-vs-enumeration agreement confirms.

use crate::slice::merge_by;
use kron_graph::{Label, LabeledGraph};
use kron_sparse::{masked_spgemm, CsrMatrix};
use std::collections::HashMap;

/// Per-vertex counts for every labeled vertex type `(q1, {q2 ≤ q3})`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabeledVertexCounts {
    counts: HashMap<(Label, Label, Label), Vec<u64>>,
    n: usize,
}

impl LabeledVertexCounts {
    /// The count vector for type `(q1, q2, q3)`; `q2`/`q3` order is
    /// irrelevant. Types with no triangles return all zeros.
    pub fn get(&self, q1: Label, q2: Label, q3: Label) -> Vec<u64> {
        let key = (q1, q2.min(q3), q2.max(q3));
        self.counts
            .get(&key)
            .cloned()
            .unwrap_or_else(|| vec![0; self.n])
    }

    /// Sum over all types and vertices — equals `3·τ`.
    pub fn grand_total(&self) -> u64 {
        self.counts.values().flatten().sum()
    }

    /// The nonzero types present.
    pub fn types(&self) -> impl Iterator<Item = (Label, Label, Label)> + '_ {
        self.counts.keys().copied()
    }
}

/// Per-edge matrices for every labeled edge type `(q1, q2, q3)` (ordered:
/// the matrix lives on entries `(i, j)` with `f(i) = q2`, `f(j) = q1`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabeledEdgeCounts {
    mats: HashMap<(Label, Label, Label), CsrMatrix<u64>>,
    n: usize,
}

impl LabeledEdgeCounts {
    /// The matrix for type `(q1, q2, q3)`; absent types are all-zero.
    pub fn get(&self, q1: Label, q2: Label, q3: Label) -> CsrMatrix<u64> {
        self.mats
            .get(&(q1, q2, q3))
            .cloned()
            .unwrap_or_else(|| CsrMatrix::zeros(self.n, self.n))
    }

    /// Sum of entries of one type.
    pub fn total(&self, q1: Label, q2: Label, q3: Label) -> u64 {
        self.mats
            .get(&(q1, q2, q3))
            .map_or(0, |m| m.values().iter().sum())
    }

    /// The nonzero types present.
    pub fn types(&self) -> impl Iterator<Item = (Label, Label, Label)> + '_ {
        self.mats.keys().copied()
    }
}

fn assert_loop_free(lg: &LabeledGraph) {
    assert_eq!(
        lg.graph().num_self_loops(),
        0,
        "labeled triangle taxonomy requires diag(A) = 0 (paper §V); \
         strip self loops first"
    );
}

/// Labeled triangle participation at vertices by enumeration.
pub fn labeled_vertex_participation(lg: &LabeledGraph) -> LabeledVertexCounts {
    assert_loop_free(lg);
    let g = lg.graph();
    let n = g.num_vertices();
    let mut counts: HashMap<(Label, Label, Label), Vec<u64>> = HashMap::new();
    crate::count::for_each_triangle(g, |a, b, c| {
        for (x, y, z) in [(a, b, c), (b, c, a), (c, a, b)] {
            let q1 = lg.label(x);
            let (l2, l3) = (lg.label(y), lg.label(z));
            let key = (q1, l2.min(l3), l2.max(l3));
            counts.entry(key).or_insert_with(|| vec![0; n])[x as usize] += 1;
        }
    });
    LabeledVertexCounts { counts, n }
}

/// Labeled triangle participation at vertices by the Def. 13 formulas:
/// `diag(Π_q1 A Π_q3 A Π_q2 A Π_q1)`, halved when `q2 = q3`.
pub fn labeled_vertex_participation_formula(lg: &LabeledGraph) -> LabeledVertexCounts {
    assert_loop_free(lg);
    let g = lg.graph();
    let n = g.num_vertices();
    let a = g.to_csr();
    let filters: Vec<CsrMatrix<u64>> = (0..lg.num_labels() as Label)
        .map(|q| label_filter(lg, q))
        .collect();
    let mut counts = HashMap::new();
    for q1 in 0..lg.num_labels() as Label {
        for q2 in 0..lg.num_labels() as Label {
            for q3 in q2..lg.num_labels() as Label {
                // Π_q1 A Π_q3 A Π_q2 A Π_q1
                let m = filters[q1 as usize]
                    .spgemm(&a)
                    .spgemm(&filters[q3 as usize])
                    .spgemm(&a)
                    .spgemm(&filters[q2 as usize])
                    .spgemm(&a)
                    .spgemm(&filters[q1 as usize]);
                let mut d = m.diag();
                if q2 == q3 {
                    for v in d.iter_mut() {
                        debug_assert_eq!(*v % 2, 0);
                        *v /= 2;
                    }
                }
                if d.iter().any(|&x| x != 0) {
                    counts.insert((q1, q2, q3), d);
                }
            }
        }
    }
    LabeledVertexCounts { counts, n }
}

/// Per-type slot increments: `(slot of (i,j), slot of (j,i), count)`.
type SlotIncrements = Vec<(usize, usize, u64)>;

/// Labeled triangle participation at edges by enumeration: for every
/// adjacency entry `(i, j)` and common neighbor `k`, increment type
/// `(f(j), f(i), f(k))` at `(i, j)` — the semantics of Def. 14.
pub fn labeled_edge_participation(lg: &LabeledGraph) -> LabeledEdgeCounts {
    assert_loop_free(lg);
    let g = lg.graph();
    let n = g.num_vertices();
    let mut trip: HashMap<(Label, Label, Label), SlotIncrements> = HashMap::new();
    for (i, j) in g.adjacency_entries() {
        let ri = g.adj_row(i);
        merge_by(ri, g.adj_row(j), u32::cmp, |p, _| {
            let k = ri[p];
            if k != i && k != j {
                let key = (lg.label(j), lg.label(i), lg.label(k));
                trip.entry(key)
                    .or_default()
                    .push((i as usize, j as usize, 1));
            }
        });
    }
    LabeledEdgeCounts {
        mats: trip
            .into_iter()
            .map(|(k, t)| (k, CsrMatrix::from_triplets(n, n, t)))
            .collect(),
        n,
    }
}

/// Labeled triangle participation at edges by the Def. 14 formula
/// `Δ^(q1,q2,q3) = (Π_q2 A Π_q1) ∘ (A Π_q3 A)`.
pub fn labeled_edge_participation_formula(lg: &LabeledGraph) -> LabeledEdgeCounts {
    assert_loop_free(lg);
    let g = lg.graph();
    let n = g.num_vertices();
    let a = g.to_csr();
    let filters: Vec<CsrMatrix<u64>> = (0..lg.num_labels() as Label)
        .map(|q| label_filter(lg, q))
        .collect();
    let mut mats = HashMap::new();
    for q1 in 0..lg.num_labels() as Label {
        for q2 in 0..lg.num_labels() as Label {
            let mask = filters[q2 as usize]
                .spgemm(&a)
                .spgemm(&filters[q1 as usize]);
            for q3 in 0..lg.num_labels() as Label {
                // (Π_q2 A Π_q1) ∘ (A Π_q3 A) = mask ∘ ((A Π_q3)·A)
                let a_pq3 = a.spgemm(&filters[q3 as usize]);
                let m = masked_spgemm(&mask, &a_pq3, &a);
                if m.nnz() > 0 {
                    mats.insert((q1, q2, q3), m);
                }
            }
        }
    }
    LabeledEdgeCounts { mats, n }
}

/// The label filter `Π_{A,q}` of Def. 12: the diagonal projector onto
/// vertices labeled `q`.
pub fn label_filter(lg: &LabeledGraph, q: Label) -> CsrMatrix<u64> {
    let diag: Vec<u64> = lg.labels().iter().map(|&l| u64::from(l == q)).collect();
    CsrMatrix::from_diag(&diag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_graph::Graph;
    use rand::prelude::*;

    fn random_labeled(rng: &mut StdRng, n: usize, p: f64, l: usize) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(p))
            .collect();
        let labels = (0..n).map(|_| rng.gen_range(0..l as Label)).collect();
        LabeledGraph::new(Graph::from_edges(n, edges), labels, l)
    }

    #[test]
    fn single_triangle_rgb() {
        // triangle 0(red)-1(green)-2(blue)
        let lg = LabeledGraph::new(
            Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]),
            vec![0, 1, 2],
            3,
        );
        let c = labeled_vertex_participation(&lg);
        // red vertex is the center of one (red, green, blue) triangle
        assert_eq!(c.get(0, 1, 2), vec![1, 0, 0]);
        assert_eq!(c.get(0, 2, 1), vec![1, 0, 0]); // order-insensitive
        assert_eq!(c.get(1, 0, 2), vec![0, 1, 0]);
        assert_eq!(c.get(2, 0, 1), vec![0, 0, 1]);
        assert_eq!(c.get(0, 0, 0), vec![0, 0, 0]);
        assert_eq!(c.grand_total(), 3);
    }

    #[test]
    fn monochrome_triangle() {
        let lg = LabeledGraph::new(
            Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]),
            vec![0, 0, 0],
            1,
        );
        let c = labeled_vertex_participation(&lg);
        assert_eq!(c.get(0, 0, 0), vec![1, 1, 1]);
        // edge type (0,0,0): every adjacency entry sees one triangle
        let e = labeled_edge_participation(&lg);
        assert_eq!(e.total(0, 0, 0), 6);
    }

    #[test]
    fn vertex_enumeration_matches_formula() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..10 {
            let n = rng.gen_range(3..12);
            let lg = random_labeled(&mut rng, n, 0.45, 3);
            let a = labeled_vertex_participation(&lg);
            let b = labeled_vertex_participation_formula(&lg);
            for q1 in 0..3 {
                for q2 in 0..3 {
                    for q3 in q2..3 {
                        assert_eq!(
                            a.get(q1, q2, q3),
                            b.get(q1, q2, q3),
                            "type ({q1},{q2},{q3})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn edge_enumeration_matches_formula() {
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..10 {
            let n = rng.gen_range(3..12);
            let lg = random_labeled(&mut rng, n, 0.45, 3);
            let a = labeled_edge_participation(&lg);
            let b = labeled_edge_participation_formula(&lg);
            for q1 in 0..3 {
                for q2 in 0..3 {
                    for q3 in 0..3 {
                        assert_eq!(
                            a.get(q1, q2, q3),
                            b.get(q1, q2, q3),
                            "type ({q1},{q2},{q3})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn edge_transpose_identity() {
        // Δ^(q1,q2,q3)ᵗ = Δ^(q2,q1,q3)
        let mut rng = StdRng::seed_from_u64(33);
        let lg = random_labeled(&mut rng, 12, 0.5, 3);
        let e = labeled_edge_participation(&lg);
        for q1 in 0..3 {
            for q2 in 0..3 {
                for q3 in 0..3 {
                    assert_eq!(e.get(q1, q2, q3).transpose(), e.get(q2, q1, q3));
                }
            }
        }
    }

    #[test]
    fn grand_total_is_three_tau() {
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..10 {
            let n = rng.gen_range(3..14);
            let lg = random_labeled(&mut rng, n, 0.4, 2);
            let tau = crate::count_triangles(lg.graph()).triangles;
            assert_eq!(labeled_vertex_participation(&lg).grand_total(), 3 * tau);
        }
    }

    #[test]
    fn vertex_counts_refine_unlabeled() {
        // summing labeled counts over all types recovers t_A per vertex
        let mut rng = StdRng::seed_from_u64(35);
        let lg = random_labeled(&mut rng, 14, 0.4, 3);
        let t = crate::vertex_participation(lg.graph());
        let c = labeled_vertex_participation(&lg);
        let mut sum = vec![0u64; 14];
        for (q1, q2, q3) in c.types() {
            for (s, v) in sum.iter_mut().zip(c.get(q1, q2, q3)) {
                *s += v;
            }
        }
        assert_eq!(sum, t);
    }

    #[test]
    fn filter_is_projector() {
        let mut rng = StdRng::seed_from_u64(36);
        let lg = random_labeled(&mut rng, 10, 0.3, 3);
        for q in 0..3 {
            let p = label_filter(&lg, q);
            assert_eq!(p.spgemm(&p), p); // idempotent
        }
        // filters sum to the identity
        let sum = label_filter(&lg, 0)
            .add(&label_filter(&lg, 1))
            .add(&label_filter(&lg, 2));
        assert_eq!(sum, CsrMatrix::identity(10));
    }
}

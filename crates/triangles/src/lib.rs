//! # kron-triangles — triangle statistics substrate
//!
//! Every triangle statistic the paper (Sanders et al., IPDPS 2018) derives a
//! Kronecker formula for, computed *directly* on a concrete graph:
//!
//! * [`count_triangles`] — global triangle count `τ(A)` via the
//!   degree-ordered forward algorithm (the Chiba–Nishizeki-style kernel the
//!   paper's §VI credits for its 10.5-second laptop run), with wedge-check
//!   accounting;
//! * [`vertex_participation`] — `t_A = ½·diag((A − D_A)³)` per vertex
//!   (Def. 5, Fig. 2 left);
//! * [`edge_participation`] — `Δ_A = (A − D_A) ∘ (A − D_A)²` per edge
//!   (Def. 6, Fig. 2 right), slot-aligned with the CSR adjacency;
//! * [`directed`] — the fifteen directed triangle types at vertices and at
//!   edges (Defs. 10–11, Figs. 4–5), by graph enumeration *and* by the
//!   paper's matrix formulas, cross-validated;
//! * [`labeled`] — vertex-labeled triangle participation (Defs. 13–14,
//!   Fig. 6), likewise via enumeration and label-filtered matrix products;
//! * [`clustering`] — local clustering coefficients and global transitivity
//!   (the downstream statistics §I motivates);
//! * [`mod@slice`] — the workspace's one sorted-merge kernel, generic over
//!   the row type: it serves the `u32` factor rows of the kernels here, of
//!   the `kron` closed forms and of the truss peel alike, and the `u64`
//!   shard rows the `kron-serve` engine answers triangle queries from off
//!   mmap'd on-disk CSR shards.
//!
//! ## Example
//!
//! ```
//! use kron_graph::Graph;
//! use kron_triangles::{count_triangles, edge_participation, vertex_participation};
//!
//! // A triangle with a pendant edge.
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
//! assert_eq!(count_triangles(&g).triangles, 1);
//! // Each triangle vertex participates once, the pendant not at all.
//! assert_eq!(vertex_participation(&g), vec![1, 1, 1, 0]);
//! // Each triangle edge carries Δ = 1; the pendant edge Δ = 0.
//! let delta = edge_participation(&g);
//! assert_eq!(delta[g.edge_slot(0, 1).unwrap()], 1);
//! assert_eq!(delta[g.edge_slot(2, 3).unwrap()], 0);
//! ```
//!
//! Each statistic has at least two independent implementations (adjacency
//! enumeration vs `kron-sparse` matrix formula); the test suites assert they
//! agree exactly, which is the same validation discipline the paper applies
//! to its Kronecker formulas.
//!
//! Self loops follow the paper's convention throughout: triangle statistics
//! are defined on the loop-free part of the graph (`A − I∘A`, Rem. 3), so
//! loops never create or join triangles directly — their effect appears only
//! through the Kronecker product formulas in the `kron` core crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod count;
pub mod directed;
mod edge;
pub mod labeled;
pub mod matrix_oracle;
pub mod slice;
mod vertex;
pub mod wedge;

pub use count::{count_triangles, TriangleCount};
pub use edge::{edge_participation, edge_participation_csr};
pub use vertex::vertex_participation;

/// Local clustering coefficients and global transitivity.
pub mod clustering {
    use kron_graph::Graph;

    /// Local clustering coefficient of every vertex:
    /// `c(v) = 2·t(v) / (d(v)·(d(v)−1))`, `0` for degree < 2.
    pub fn local_clustering(g: &Graph) -> Vec<f64> {
        let t = super::vertex_participation(g);
        (0..g.num_vertices() as u32)
            .map(|v| {
                let d = g.degree(v);
                if d < 2 {
                    0.0
                } else {
                    (2 * t[v as usize]) as f64 / (d * (d - 1)) as f64
                }
            })
            .collect()
    }

    /// Global transitivity `3τ / #wedges` (`0` if there are no wedges).
    pub fn transitivity(g: &Graph) -> f64 {
        let tau = super::count_triangles(g).triangles;
        let wedges = super::wedge::total_wedges(g);
        if wedges == 0 {
            0.0
        } else {
            (3 * tau) as f64 / wedges as f64
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn clique_is_fully_clustered() {
            let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
            assert!(local_clustering(&g)
                .iter()
                .all(|&c| (c - 1.0).abs() < 1e-12));
            assert!((transitivity(&g) - 1.0).abs() < 1e-12);
        }

        #[test]
        fn star_has_no_clustering() {
            let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
            assert!(local_clustering(&g).iter().all(|&c| c == 0.0));
            assert_eq!(transitivity(&g), 0.0);
        }

        #[test]
        fn triangle_with_tail() {
            let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
            let cc = local_clustering(&g);
            assert_eq!(cc[0], 1.0);
            assert_eq!(cc[1], 1.0);
            assert!((cc[2] - 1.0 / 3.0).abs() < 1e-12);
            assert_eq!(cc[3], 0.0);
        }
    }
}

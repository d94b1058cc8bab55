//! # kron-truss — k-truss decomposition substrate
//!
//! The paper's §III-D derives a Kronecker formula (Thm. 3) mapping the truss
//! decomposition of a factor onto the product graph. This crate computes
//! truss decompositions of *concrete* graphs, three ways:
//!
//! * [`truss_decomposition`] — bucket-peeling (support computation once,
//!   then peel edges in increasing support order), the production path;
//! * [`truss_decomposition_simple`] — the paper's "simple (yet inefficient)
//!   algorithm" quoted verbatim in §III-D: recompute `Δ`, remove edges below
//!   threshold, iterate — kept as a readable oracle the peeling path is
//!   tested against;
//! * [`ktruss_subgraph`] / [`verify_truss`] — extraction and validation.
//!
//! ## Semantics
//!
//! Following Def. 7, `T^(κ)` is the set of edges contained in a `κ`-truss.
//! The **trussness** of an edge is the largest `κ` with `e ∈ T^(κ)`; every
//! edge is trivially in the 2-truss, so trussness ranges over `2..=n`.
//! Self loops never participate (they are dropped internally).
//!
//! ## Example
//!
//! ```
//! use kron_graph::Graph;
//! use kron_truss::truss_decomposition;
//!
//! // A triangle with a pendant edge: the triangle edges form a 3-truss,
//! // the pendant edge only the trivial 2-truss.
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
//! let t = truss_decomposition(&g);
//! assert_eq!(t.max_trussness(), 3);
//! assert_eq!(t.trussness_of(0, 1), Some(3));
//! assert_eq!(t.trussness_of(2, 3), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decomposition;
mod peel;
mod simple;

pub use decomposition::TrussDecomposition;
pub use peel::truss_decomposition;
pub use simple::truss_decomposition_simple;

use kron_graph::Graph;
use kron_triangles::edge_participation;

/// Extract the `k`-truss subgraph: iteratively delete edges supported by
/// fewer than `k − 2` triangles until fixpoint. The result keeps all `n`
/// vertices (some isolated).
pub fn ktruss_subgraph(g: &Graph, k: u32) -> Graph {
    let mut cur = g.without_self_loops();
    loop {
        let delta = edge_participation(&cur);
        let doomed: Vec<(u32, u32)> = cur
            .edges()
            .filter(|&(u, v)| {
                let s = cur.edge_slot(u, v).expect("edge exists");
                delta[s] + 2 < k as u64
            })
            .collect();
        if doomed.is_empty() {
            return cur;
        }
        cur = cur.without_edges(&doomed);
    }
}

/// Check the truss property: every edge of `g` participates in at least
/// `k − 2` triangles *within* `g`. (Vacuously true for an edgeless graph.)
pub fn verify_truss(g: &Graph, k: u32) -> bool {
    let delta = edge_participation(g);
    g.edges().all(|(u, v)| {
        let s = g.edge_slot(u, v).expect("edge exists");
        delta[s] + 2 >= k as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique(n: usize) -> Graph {
        Graph::from_edges(
            n,
            (0..n as u32).flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j))),
        )
    }

    #[test]
    fn ktruss_of_clique_is_clique() {
        let g = clique(5);
        for k in 2..=5 {
            let t = ktruss_subgraph(&g, k);
            assert_eq!(t.num_edges(), g.num_edges(), "K5 survives k={k}");
            assert!(verify_truss(&t, k));
        }
        assert_eq!(ktruss_subgraph(&g, 6).num_edges(), 0);
    }

    #[test]
    fn hub_cycle_example_2_has_empty_4truss() {
        // Ex. 2 of the paper: all edges in the 3-truss, none in the 4-truss.
        let g = Graph::from_edges(
            5,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 1),
            ],
        );
        assert_eq!(ktruss_subgraph(&g, 3).num_edges(), 8);
        assert_eq!(ktruss_subgraph(&g, 4).num_edges(), 0);
    }

    #[test]
    fn cascade_removal() {
        // K4 with a pendant triangle: the pendant triangle survives k=3 but
        // not k=4; removing it must not disturb the K4.
        let mut edges = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        edges.extend([(3, 4), (3, 5), (4, 5)]);
        let g = Graph::from_edges(6, edges);
        let t4 = ktruss_subgraph(&g, 4);
        assert_eq!(t4.num_edges(), 6);
        assert!(verify_truss(&t4, 4));
        let t3 = ktruss_subgraph(&g, 3);
        assert_eq!(t3.num_edges(), 9);
    }

    #[test]
    fn verify_rejects_non_truss() {
        let path = Graph::from_edges(3, [(0, 1), (1, 2)]);
        assert!(verify_truss(&path, 2));
        assert!(!verify_truss(&path, 3));
    }
}

//! Bucket-peeling truss decomposition.
//!
//! Classic support-peeling (Cohen's algorithm with the bin-sort bookkeeping
//! of core decomposition): compute each edge's support `Δ` once, then
//! repeatedly peel a minimum-support edge, assigning trussness
//! `max(current level, support + 2)` and decrementing the support of the
//! other two edges of every triangle it closes. `O(Σ Δ + m log m)` overall
//! versus the simple algorithm's repeated full recomputation.

use crate::TrussDecomposition;
use kron_graph::Graph;
use kron_triangles::edge_participation;
use kron_triangles::slice::merge_by;

/// Compute the full truss decomposition of `g` (self loops ignored).
pub fn truss_decomposition(g: &Graph) -> TrussDecomposition {
    let g = g.without_self_loops();
    let n = g.num_vertices();
    // canonical edge list (u < v), lexicographically sorted
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let m = edges.len();
    if m == 0 {
        return TrussDecomposition {
            edges,
            trussness: vec![],
        };
    }
    // slot -> edge id, for O(1) updates during peeling
    let mut eid_of_slot = vec![u32::MAX; g.neighbor_array().len()];
    for (id, &(u, v)) in edges.iter().enumerate() {
        eid_of_slot[g.edge_slot(u, v).unwrap()] = id as u32;
        eid_of_slot[g.edge_slot(v, u).unwrap()] = id as u32;
    }
    // initial supports from the parallel Δ kernel
    let delta = edge_participation(&g);
    let mut sup: Vec<u32> = edges
        .iter()
        .map(|&(u, v)| delta[g.edge_slot(u, v).unwrap()] as u32)
        .collect();

    // bin-sort edges by support
    let max_sup = sup.iter().copied().max().unwrap_or(0) as usize;
    let mut bin = vec![0usize; max_sup + 2];
    for &s in &sup {
        bin[s as usize + 1] += 1;
    }
    for i in 0..=max_sup {
        bin[i + 1] += bin[i];
    }
    let mut pos = vec![0usize; m]; // edge -> position in `order`
    let mut order = vec![0u32; m]; // sorted by current support
    {
        let mut next = bin.clone();
        for e in 0..m {
            let s = sup[e] as usize;
            order[next[s]] = e as u32;
            pos[e] = next[s];
            next[s] += 1;
        }
    }
    // bin[s] = first index in `order` whose support is ≥ s
    let mut alive = vec![true; m];
    let mut trussness = vec![2u32; m];
    let mut level = 2u32;

    // Decrement the support of edge `f` (currently > floor) by one and
    // relocate it one bucket down.
    let decrement = |f: usize,
                     sup: &mut Vec<u32>,
                     bin: &mut Vec<usize>,
                     pos: &mut Vec<usize>,
                     order: &mut Vec<u32>| {
        let s = sup[f] as usize;
        let first = bin[s];
        let moved = order[first] as usize;
        let pf = pos[f];
        order.swap(first, pf);
        pos[f] = first;
        pos[moved] = pf;
        bin[s] += 1;
        sup[f] -= 1;
    };

    for idx in 0..m {
        let e = order[idx] as usize;
        alive[e] = false;
        level = level.max(sup[e] + 2);
        trussness[e] = level;
        let (u, v) = edges[e];
        // find triangles (u, v, w) whose other two edges are still alive
        // (g is loop-free, so no common neighbour is u or v)
        let (su, sv) = (g.offsets()[u as usize], g.offsets()[v as usize]);
        merge_by(g.adj_row(u), g.adj_row(v), u32::cmp, |p, q| {
            let f1 = eid_of_slot[su + p] as usize;
            let f2 = eid_of_slot[sv + q] as usize;
            if !alive[f1] || !alive[f2] {
                return;
            }
            // supports never drop below the current floor
            if sup[f1] + 2 > level {
                decrement(f1, &mut sup, &mut bin, &mut pos, &mut order);
            }
            if sup[f2] + 2 > level {
                decrement(f2, &mut sup, &mut bin, &mut pos, &mut order);
            }
        });
    }
    let _ = n;
    TrussDecomposition { edges, trussness }
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
    fn clique_trussness_is_n() {
        for n in 3..=7usize {
            let d = truss_decomposition(&clique(n));
            assert!(
                d.trussness.iter().all(|&t| t == n as u32),
                "K{n}: {:?}",
                d.histogram()
            );
        }
    }

    #[test]
    fn triangle_free_graph_is_all_twos() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let d = truss_decomposition(&g);
        assert!(d.trussness.iter().all(|&t| t == 2));
    }

    #[test]
    fn hub_cycle_is_all_threes() {
        // Ex. 2: every edge is in the 3-truss, none in the 4-truss.
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
        let d = truss_decomposition(&g);
        assert!(d.trussness.iter().all(|&t| t == 3), "{:?}", d.histogram());
    }

    #[test]
    fn k4_with_pendant_triangle() {
        let mut edges = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        edges.extend([(3, 4), (3, 5), (4, 5)]);
        let g = Graph::from_edges(6, edges);
        let d = truss_decomposition(&g);
        assert_eq!(d.trussness_of(0, 1), Some(4));
        assert_eq!(d.trussness_of(2, 3), Some(4));
        assert_eq!(d.trussness_of(3, 4), Some(3));
        assert_eq!(d.trussness_of(4, 5), Some(3));
    }

    #[test]
    fn two_cliques_sharing_an_edge() {
        // K4 on {0,1,2,3} and K4 on {2,3,4,5}: the shared edge (2,3) is in
        // both 4-trusses; trussness stays 4 (supports don't add up to a
        // 5-truss).
        let e1 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let e2 = [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)];
        let g = Graph::from_edges(6, e1.into_iter().chain(e2));
        let d = truss_decomposition(&g);
        assert_eq!(d.max_trussness(), 4);
        assert_eq!(d.trussness_of(2, 3), Some(4));
        assert_eq!(d.trussness_of(0, 1), Some(4));
    }

    #[test]
    fn self_loops_ignored() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0), (1, 1)]);
        let d = truss_decomposition(&g);
        assert_eq!(d.edges.len(), 3);
        assert!(d.trussness.iter().all(|&t| t == 3));
        assert_eq!(d.trussness_of(1, 1), None);
    }

    #[test]
    fn empty_graph() {
        let d = truss_decomposition(&Graph::empty(4));
        assert!(d.edges.is_empty());
        assert_eq!(d.max_trussness(), 0);
    }
}

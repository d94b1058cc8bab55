//! Per-edge triangle participation `Δ_A` (Def. 6 of the paper).

use crate::slice::intersect_excluding;
use kron_graph::Graph;
use kron_sparse::CsrMatrix;
use rayon::prelude::*;

/// Triangle participation at edges as a slot-aligned vector: entry `s`
/// corresponds to adjacency slot `s` of `g` (see [`Graph::edge_slot`]) and
/// holds the number of triangles the edge participates in. Both orientations
/// of an edge carry the same value (`Δ_A` is symmetric); self-loop slots
/// hold `0`.
///
/// This is the graph realization of `Δ_A = (A − D_A) ∘ (A − D_A)²`:
/// `Δ[slot(u,v)] = |N(u) ∩ N(v) \ {u, v}|`. Slots are independent, so the
/// computation is embarrassingly parallel over source vertices.
pub fn edge_participation(g: &Graph) -> Vec<u64> {
    let n = g.num_vertices();
    let offsets = g.offsets().to_vec();
    let mut values = vec![0u64; g.neighbor_array().len()];
    // Partition the output by source vertex so each worker owns a disjoint
    // range of slots.
    let chunks: Vec<(usize, &mut [u64])> = {
        let mut rest: &mut [u64] = &mut values;
        let mut out = Vec::with_capacity(n);
        for v in 0..n {
            let len = offsets[v + 1] - offsets[v];
            let (head, tail) = rest.split_at_mut(len);
            out.push((v, head));
            rest = tail;
        }
        out
    };
    chunks.into_par_iter().for_each(|(v, slots)| {
        let v = v as u32;
        let row_v = g.adj_row(v);
        for (slot, &u) in slots.iter_mut().zip(row_v) {
            if u == v {
                continue; // self loop: Δ diagonal is zero
            }
            *slot = intersect_excluding(row_v, g.adj_row(u), u, v).0;
        }
    });
    values
}

/// [`edge_participation`] as a sparse matrix (zero entries dropped), for
/// direct comparison against the `kron-sparse` formula oracle.
pub fn edge_participation_csr(g: &Graph) -> CsrMatrix<u64> {
    let vals = edge_participation(g);
    let n = g.num_vertices();
    CsrMatrix::from_triplets(
        n,
        n,
        g.adjacency_entries()
            .zip(vals)
            .filter(|&(_, v)| v != 0)
            .map(|((u, w), v)| (u as usize, w as usize, v)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_triangles, vertex_participation};

    fn clique(n: usize) -> Graph {
        Graph::from_edges(
            n,
            (0..n as u32).flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j))),
        )
    }

    #[test]
    fn clique_edges_see_n_minus_2() {
        // Ex. 1: each edge of K_n participates in (n − 2) triangles.
        for n in 3..=7usize {
            let g = clique(n);
            let vals = edge_participation(&g);
            assert!(vals.iter().all(|&v| v == (n - 2) as u64), "K{n}");
        }
    }

    #[test]
    fn symmetric_across_orientations() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let vals = edge_participation(&g);
        for (u, v) in g.edges() {
            let s1 = g.edge_slot(u, v).unwrap();
            let s2 = g.edge_slot(v, u).unwrap();
            assert_eq!(vals[s1], vals[s2]);
        }
    }

    #[test]
    fn hub_cycle_example_2_edge_counts() {
        // Ex. 2: hub edges in 2 triangles, cycle edges in 1.
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
        let vals = edge_participation(&g);
        for (u, v) in g.edges() {
            let s = g.edge_slot(u, v).unwrap();
            let expect = if u == 0 { 2 } else { 1 };
            assert_eq!(vals[s], expect, "edge ({u},{v})");
        }
    }

    #[test]
    fn row_sums_are_twice_vertex_participation() {
        // t_A = ½·Δ_A·1 (the identity below Def. 6)
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..15 {
            let n = rng.gen_range(3..20);
            let edges: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
                .filter(|_| rng.gen_bool(0.35))
                .collect();
            let g = Graph::from_edges(n, edges);
            let delta = edge_participation(&g);
            let t = vertex_participation(&g);
            for v in 0..n as u32 {
                let row_sum: u64 = (g.offsets()[v as usize]..g.offsets()[v as usize + 1])
                    .map(|s| delta[s])
                    .sum();
                assert_eq!(row_sum, 2 * t[v as usize]);
            }
            // Σ Δ = 6τ
            let tau = count_triangles(&g).triangles;
            assert_eq!(delta.iter().sum::<u64>(), 6 * tau);
        }
    }

    #[test]
    fn loops_excluded_everywhere() {
        let g = Graph::from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 0), (1, 1)]);
        let vals = edge_participation(&g);
        // loop slots are zero
        assert_eq!(vals[g.edge_slot(0, 0).unwrap()], 0);
        assert_eq!(vals[g.edge_slot(1, 1).unwrap()], 0);
        // triangle edges still count exactly one triangle
        assert_eq!(vals[g.edge_slot(0, 1).unwrap()], 1);
        assert_eq!(vals[g.edge_slot(1, 2).unwrap()], 1);
        assert_eq!(vals[g.edge_slot(2, 0).unwrap()], 1);
    }

    #[test]
    fn csr_form_matches_slots() {
        let g = clique(5);
        let vals = edge_participation(&g);
        let m = edge_participation_csr(&g);
        for (u, v) in g.edges() {
            assert_eq!(
                m.get(u as usize, v as usize),
                vals[g.edge_slot(u, v).unwrap()]
            );
        }
        assert!(m.is_symmetric());
    }
}

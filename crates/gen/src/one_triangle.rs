//! The paper's §III-D strategy (b): a preferential-attachment generator
//! whose every edge participates in **at most one triangle** — the factor
//! hypothesis of the truss theorem (Thm. 3).
//!
//! Transcribed from the paper:
//!
//! > The generator starts with a single edge and proceeds as follows. For
//! > each new node `u`, pick edge `(i, j)` uniformly at random from the
//! > previously existing edges. Pick vertex `v` from `{i, j}` uniformly at
//! > random and add `(u, v)` to the list of edges. If the number of
//! > triangles that `(i, j)` participates in is zero, then let `w` be \[the\]
//! > vertex in `{i, j}` that wasn't already attached, add `(u, w)` to the
//! > list of edges, and increment the triangle count for `(i, j)`,
//! > `(u, v)`, and `(u, w)`. Repeat for a new `u` until the desired number
//! > of vertices is met.

use kron_graph::{Graph, GraphBuilder};
use rand::prelude::*;

/// Generate an `n`-vertex power-law graph in which every edge participates
/// in at most one triangle (`Δ_B ≤ 1`).
///
/// # Panics
/// Panics if `n < 2`.
pub fn one_triangle_per_edge(n: usize, seed: u64) -> Graph {
    assert!(n >= 2, "need at least the seed edge's two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    // edge list with per-edge triangle counters
    let mut edges: Vec<(u32, u32)> = vec![(0, 1)];
    let mut tri: Vec<u8> = vec![0];
    for u in 2..n as u32 {
        let e = rng.gen_range(0..edges.len());
        let (i, j) = edges[e];
        let v = if rng.gen_bool(0.5) { i } else { j };
        if tri[e] == 0 {
            // close a triangle over edge (i, j)
            let w = if v == i { j } else { i };
            edges.push((u, v));
            tri.push(1);
            edges.push((u, w));
            tri.push(1);
            tri[e] = 1;
        } else {
            edges.push((u, v));
            tri.push(0);
        }
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (a, c) in edges {
        b.add_edge(a, c);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_graph::is_connected;
    use kron_triangles::{count_triangles, edge_participation};

    #[test]
    fn delta_at_most_one() {
        for seed in 0..8 {
            let g = one_triangle_per_edge(3000, seed);
            let delta = edge_participation(&g);
            assert!(
                delta.iter().all(|&d| d <= 1),
                "seed {seed}: max Δ = {}",
                delta.iter().max().unwrap()
            );
        }
    }

    #[test]
    fn connected_and_loop_free() {
        let g = one_triangle_per_edge(500, 3);
        assert!(is_connected(&g));
        assert_eq!(g.num_self_loops(), 0);
    }

    #[test]
    fn actually_contains_triangles() {
        let g = one_triangle_per_edge(2000, 4);
        assert!(count_triangles(&g).triangles > 50);
    }

    #[test]
    fn heavy_tail_present() {
        let g = one_triangle_per_edge(4000, 6);
        let mean_d = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            g.max_degree() as f64 > 5.0 * mean_d,
            "max {} vs mean {mean_d}",
            g.max_degree()
        );
    }

    #[test]
    fn tiny_inputs() {
        let g = one_triangle_per_edge(2, 0);
        assert_eq!(g.num_edges(), 1);
        let g = one_triangle_per_edge(3, 0);
        assert!(g.num_edges() >= 2);
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(one_triangle_per_edge(100, 5), one_triangle_per_edge(100, 5));
    }
}

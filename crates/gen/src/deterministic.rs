//! Closed-form graph families used by the paper's worked examples.

use kron_graph::Graph;

/// The clique `K_n` (`J_n − I_n` in the paper's Ex. 1): every pair of
/// distinct vertices adjacent, no self loops.
pub fn clique(n: usize) -> Graph {
    Graph::from_edges(
        n,
        (0..n as u32).flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j))),
    )
}

/// The looped clique `J_n = 1·1ᵗ` of Ex. 1: a clique where every vertex
/// also carries a self loop.
pub fn clique_with_loops(n: usize) -> Graph {
    clique(n).with_all_self_loops()
}

/// The cycle `C_n` (`n ≥ 3`).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    Graph::from_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)))
}

/// The path `P_n` on `n` vertices (`n − 1` edges).
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (0..n.saturating_sub(1) as u32).map(|i| (i, i + 1)))
}

/// The star `S_n`: vertex 0 adjacent to all others.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1, "star needs at least 1 vertex");
    Graph::from_edges(n, (1..n as u32).map(|i| (0, i)))
}

/// The paper's Ex. 2 graph (Fig. 3 left): a 4-cycle `1-2-3-4` with hub
/// vertex `0` adjacent to every cycle vertex —
/// `K_5 − e_2e_4ᵗ − e_4e_2ᵗ − e_3e_5ᵗ − e_5e_3ᵗ` in 1-based paper indexing.
///
/// 5 vertices, 8 edges, 4 triangles; hub edges participate in 2 triangles,
/// cycle edges in 1; every edge is in the 3-truss, none in the 4-truss.
pub fn hub_cycle() -> Graph {
    Graph::from_edges(
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
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_graph::is_connected;
    use kron_triangles::{count_triangles, edge_participation, vertex_participation};

    #[test]
    fn clique_counts() {
        let g = clique(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.num_self_loops(), 0);
        // Ex. 1 closed forms: degree n−1, t = C(n−1,2), Δ = n−2
        assert!(g.degree_vector().iter().all(|&d| d == 5));
        assert!(vertex_participation(&g).iter().all(|&t| t == 10));
        assert!(edge_participation(&g).iter().all(|&d| d == 4));
    }

    #[test]
    fn looped_clique_jn() {
        let j = clique_with_loops(4);
        assert_eq!(j.num_self_loops(), 4);
        assert_eq!(j.nnz(), 16); // J_4 is all-ones
    }

    #[test]
    fn cycle_and_path() {
        let c = cycle(5);
        assert_eq!(c.num_edges(), 5);
        assert!(c.degree_vector().iter().all(|&d| d == 2));
        assert_eq!(count_triangles(&c).triangles, 0);
        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert!(is_connected(&p));
        // C_3 is a triangle
        assert_eq!(count_triangles(&cycle(3)).triangles, 1);
    }

    #[test]
    fn star_and_bipartite_are_triangle_free() {
        assert_eq!(count_triangles(&star(10)).triangles, 0);
        // K_{3,4}: vertices 0..3 against 3..7
        let b = Graph::from_edges(7, (0..3).flat_map(|i| (3..7).map(move |j| (i, j))));
        assert_eq!(b.num_edges(), 12);
        assert_eq!(count_triangles(&b).triangles, 0);
    }

    #[test]
    fn hub_cycle_matches_example_2() {
        let g = hub_cycle();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(count_triangles(&g).triangles, 4);
        assert_eq!(vertex_participation(&g), vec![4, 2, 2, 2, 2]);
    }
}

//! Per-vertex triangle participation `t_A` (Def. 5 of the paper).

use crate::count::build_dag;
use crate::slice::merge_by;
use kron_graph::Graph;
use rayon::prelude::*;

/// Triangle participation at vertices: `t_A[v]` is the number of triangles
/// containing `v` — the graph realization of `½·diag((A − D_A)³)`.
///
/// Parallelized with rayon: source vertices are processed concurrently, each
/// worker folding triangle increments into a thread-local vector that is
/// then reduced (self loops are ignored per the paper's convention).
pub fn vertex_participation(g: &Graph) -> Vec<u64> {
    let n = g.num_vertices();
    let dag = build_dag(g);
    (0..n as u32)
        .into_par_iter()
        .fold(
            || vec![0u64; n],
            |mut t, u| {
                let ou = dag.out(u);
                for (i, &v) in ou.iter().enumerate() {
                    let rest = &ou[i + 1..];
                    merge_by(rest, dag.out(v), dag.by_rank(), |p, _| {
                        t[u as usize] += 1;
                        t[v as usize] += 1;
                        t[rest[p] as usize] += 1;
                    });
                }
                t
            },
        )
        .reduce(
            || vec![0u64; n],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_triangles;
    use crate::matrix_oracle::vertex_participation_formula;

    #[test]
    fn clique_participation_is_binomial() {
        // Ex. 1 of the paper: in K_n every vertex is in C(n−1, 2) triangles.
        for n in 3..=7usize {
            let g = Graph::from_edges(
                n,
                (0..n as u32).flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j))),
            );
            let expect = ((n - 1) * (n - 2) / 2) as u64;
            assert!(vertex_participation(&g).iter().all(|&t| t == expect));
        }
    }

    #[test]
    fn hub_cycle_example_2() {
        // Ex. 2: 4-cycle with hub — hub vertex 0 in 4 triangles, cycle
        // vertices in 2 each.
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
        assert_eq!(vertex_participation(&g), vec![4, 2, 2, 2, 2]);
    }

    #[test]
    fn sums_to_three_tau() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let n = rng.gen_range(3..25);
            let edges: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
                .filter(|_| rng.gen_bool(0.3))
                .collect();
            let g = Graph::from_edges(n, edges);
            let t = vertex_participation(&g);
            let tau = count_triangles(&g).triangles;
            assert_eq!(t.iter().sum::<u64>(), 3 * tau);
            assert_eq!(t, vertex_participation_formula(&g));
        }
    }

    #[test]
    fn loops_ignored() {
        let with = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0), (1, 1)]);
        let without = with.without_self_loops();
        assert_eq!(vertex_participation(&with), vertex_participation(&without));
    }
}

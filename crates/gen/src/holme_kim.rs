//! Holme–Kim powerlaw-with-clustering graphs — the workspace's synthetic
//! stand-in for the paper's `web-NotreDame` factor.
//!
//! Plain preferential attachment yields power-law degrees but few
//! triangles; the paper's §VI factor (a web crawl) is both scale-free *and*
//! triangle-rich (4.3M triangles on 1.09M edges). Holme–Kim augments BA
//! with *triad formation*: after each preferential attachment to `v`, with
//! probability `p_t` the next edge closes a triangle by attaching to a
//! random neighbor of `v`.

use kron_graph::{Graph, GraphBuilder};
use rand::prelude::*;

/// Generate a Holme–Kim graph: `n` vertices, `m` edges per new vertex,
/// triad-formation probability `p_t`.
///
/// # Panics
/// Panics unless `1 ≤ m < n` and `p_t ∈ [0, 1]`.
pub fn holme_kim(n: usize, m: usize, p_t: f64, seed: u64) -> Graph {
    assert!(m >= 1 && m < n, "need 1 <= m < n");
    assert!((0.0..=1.0).contains(&p_t), "p_t must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * m);
    let mut pool: Vec<u32> = Vec::with_capacity(2 * n * m);
    // adjacency mirror for neighbor sampling and duplicate detection
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let connect =
        |b: &mut GraphBuilder, pool: &mut Vec<u32>, adj: &mut Vec<Vec<u32>>, u: u32, v: u32| {
            b.add_edge(u, v);
            pool.push(u);
            pool.push(v);
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        };
    for v in 1..=m as u32 {
        connect(&mut b, &mut pool, &mut adj, 0, v);
    }
    for u in (m + 1) as u32..n as u32 {
        // first link of this vertex is always preferential
        let mut prev: Option<u32> = None;
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < m {
            guard += 1;
            let target = if let Some(p) = prev.filter(|_| rng.gen_bool(p_t)) {
                // triad formation: a neighbor of the previous target
                let nbrs = &adj[p as usize];
                nbrs[rng.gen_range(0..nbrs.len())]
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            if target != u && !adj[u as usize].contains(&target) {
                connect(&mut b, &mut pool, &mut adj, u, target);
                prev = Some(target);
                added += 1;
            } else if guard > 50 * m {
                // dense corner case: fall back to any fresh vertex
                if let Some(t) = (0..u).find(|&t| !adj[u as usize].contains(&t)) {
                    connect(&mut b, &mut pool, &mut adj, u, t);
                    prev = Some(t);
                    added += 1;
                } else {
                    break;
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_graph::is_connected;
    use kron_triangles::{clustering::transitivity, count_triangles};

    #[test]
    fn shape_and_connectivity() {
        let g = holme_kim(1000, 3, 0.7, 2);
        assert_eq!(g.num_edges() as usize, 3 + (1000 - 4) * 3);
        assert!(is_connected(&g));
        assert_eq!(g.num_self_loops(), 0);
    }

    #[test]
    fn triad_formation_boosts_triangles() {
        let plain = holme_kim(1500, 3, 0.0, 7); // p_t = 0 reduces to BA
        let clustered = holme_kim(1500, 3, 0.9, 7);
        let t_plain = count_triangles(&plain).triangles;
        let t_clust = count_triangles(&clustered).triangles;
        assert!(
            t_clust > 2 * t_plain,
            "triad formation should multiply triangles: {t_plain} vs {t_clust}"
        );
        assert!(transitivity(&clustered) > transitivity(&plain));
    }

    #[test]
    fn heavy_tail_present() {
        let g = holme_kim(2000, 3, 0.6, 13);
        let mean_d = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(g.max_degree() as f64 > 6.0 * mean_d);
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(holme_kim(300, 2, 0.5, 1), holme_kim(300, 2, 0.5, 1));
        assert_ne!(holme_kim(300, 2, 0.5, 1), holme_kim(300, 2, 0.5, 2));
    }
}

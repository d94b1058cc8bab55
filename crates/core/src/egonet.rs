//! Implicit egonet extraction from the product — the validation
//! methodology of the paper's §VI / Fig. 7: "constructing individual
//! egonets … of vertices in C and comparing the local triangle statistics
//! to those prescribed by the Kronecker formulas", all **without ever
//! materializing C**.

use crate::KronProduct;
use kron_graph::Graph;
use std::collections::HashMap;

/// A materialized egonet of a single product vertex: the induced subgraph
/// on the closed neighborhood of `center`, built purely from the factors.
#[derive(Clone, Debug)]
pub struct ProductEgonet {
    /// The local induced subgraph (vertices renumbered `0..k`).
    pub graph: Graph,
    /// `mapping[local]` = global product-vertex id.
    pub mapping: Vec<u64>,
    /// Local id of the center.
    pub center: u32,
}

impl ProductEgonet {
    /// Degree of the center inside the egonet (= its degree in `C`).
    pub fn center_degree(&self) -> u64 {
        self.graph.degree(self.center)
    }

    /// Triangles through the center, counted *locally* (edges among the
    /// center's neighbors) — the independent check against
    /// [`KronProduct::vertex_triangles`].
    pub fn triangles_at_center(&self) -> u64 {
        let nbrs: Vec<u32> = self.graph.neighbors(self.center).collect();
        let mut count = 0u64;
        for (i, &u) in nbrs.iter().enumerate() {
            for &v in &nbrs[i + 1..] {
                if self.graph.has_edge(u, v) {
                    count += 1;
                }
            }
        }
        count
    }
}

impl KronProduct {
    /// Extract the egonet of product vertex `p` implicitly: neighbors come
    /// from the factor rows (`N_C(p) = N_A(i) × N_B(k)` under `γ`), and
    /// edges among them from factor edge lookups. Cost `O(d_C(p)²·log)`,
    /// independent of `|E_C|`.
    pub fn egonet(&self, p: u64) -> ProductEgonet {
        let mut verts: Vec<u64> = self.neighbors(p);
        if !self.has_self_loop(p) {
            verts.push(p);
        }
        verts.sort_unstable();
        verts.dedup();
        let local: HashMap<u64, u32> = verts
            .iter()
            .enumerate()
            .map(|(idx, &v)| (v, idx as u32))
            .collect();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (x, &q1) in verts.iter().enumerate() {
            // restrict q1's product row to the egonet vertex set, from q1
            // on: each undirected pair once
            for q2 in self.row(q1).skip_while(|&q2| q2 < q1) {
                if let Some(&y) = local.get(&q2) {
                    edges.push((x as u32, y));
                }
            }
        }
        let graph = Graph::from_edges(verts.len(), edges);
        let center = local[&p];
        ProductEgonet {
            graph,
            mapping: verts,
            center,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_gen::deterministic::{clique, hub_cycle};
    use kron_graph::egonet as host_egonet;
    use rand::prelude::*;

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

    #[test]
    fn matches_materialized_egonets() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..5 {
            let a = random_graph(&mut rng, 6, 0.5, 0.3);
            let b = random_graph(&mut rng, 6, 0.5, 0.3);
            let c = KronProduct::new(a, b);
            let g = c.materialize(1 << 22).unwrap();
            for p in 0..c.num_vertices() {
                let implicit = c.egonet(p);
                let direct = host_egonet(&g, p as u32);
                assert_eq!(
                    implicit.mapping,
                    direct.mapping.iter().map(|&x| x as u64).collect::<Vec<_>>(),
                    "egonet vertex set at {p}"
                );
                assert_eq!(implicit.graph, direct.graph, "egonet edges at {p}");
                assert_eq!(implicit.center, direct.center);
            }
        }
    }

    #[test]
    fn egonet_stats_agree_with_formulas() {
        // the paper's Fig. 7 check, in miniature: egonet-counted degree and
        // triangles equal the Kronecker formulas at every vertex
        let c = KronProduct::new(hub_cycle(), hub_cycle());
        for p in 0..c.num_vertices() {
            let ego = c.egonet(p);
            assert_eq!(ego.center_degree(), c.degree(p), "degree({p})");
            assert_eq!(ego.triangles_at_center(), c.vertex_triangles(p), "t_C({p})");
        }
    }

    #[test]
    fn egonet_of_clique_product_vertex() {
        let c = KronProduct::new(clique(3), clique(4));
        let ego = c.egonet(0);
        // Ex. 1(a): degree = nm + 1 − n − m = 6
        assert_eq!(ego.center_degree(), 6);
        assert_eq!(ego.graph.num_vertices(), 7);
        assert_eq!(ego.triangles_at_center(), c.vertex_triangles(0));
    }
}

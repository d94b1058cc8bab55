//! Egonet and induced-subgraph extraction.
//!
//! The paper validates its Kronecker formulas "by constructing individual
//! egonets (induced subgraphs of vertex neighborhoods) of vertices in C and
//! comparing the local triangle statistics to those prescribed by the
//! Kronecker formulas" (§VI, Fig. 7). This module supplies the materialized
//! version; `kron::egonet` builds the same object *implicitly* from the
//! factors.

use crate::Graph;

/// An extracted egonet: the induced subgraph on `{center} ∪ N(center)`.
/// `V` is the host's vertex id type — `u32` for a [`Graph`], `u64` for
/// an egonet built implicitly from a Kronecker product's factors.
#[derive(Clone, Debug)]
pub struct Egonet<V = u32> {
    /// The induced subgraph, with vertices renumbered `0..k`.
    pub graph: Graph,
    /// `mapping[local]` is the original vertex id.
    pub mapping: Vec<V>,
    /// The local id of the center vertex.
    pub center: u32,
}

impl<V> Egonet<V> {
    /// Number of triangles through the center = number of edges among the
    /// center's neighbors (self loops are no neighbors, so never count).
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

    /// Degree of the center inside the egonet (equals its degree in the
    /// host graph).
    pub fn center_degree(&self) -> u64 {
        self.graph.degree(self.center)
    }
}

/// The induced subgraph on an arbitrary vertex set (duplicates ignored).
/// Returns the subgraph and the local→global mapping, sorted by global id.
pub fn induced_subgraph(g: &Graph, vertices: &[u32]) -> (Graph, Vec<u32>) {
    let mut mapping: Vec<u32> = vertices.to_vec();
    mapping.sort_unstable();
    mapping.dedup();
    let mut local = std::collections::HashMap::with_capacity(mapping.len());
    for (i, &v) in mapping.iter().enumerate() {
        local.insert(v, i as u32);
    }
    let mut edges = Vec::new();
    for (i, &v) in mapping.iter().enumerate() {
        for u in g.adj_row(v) {
            if let Some(&j) = local.get(u) {
                if (j as usize) >= i {
                    edges.push((i as u32, j));
                }
            }
        }
    }
    (Graph::from_edges(mapping.len(), edges), mapping)
}

/// Extract the egonet of `center`: induced subgraph on the closed
/// neighborhood `{center} ∪ N(center)`.
pub fn egonet(g: &Graph, center: u32) -> Egonet {
    let mut verts: Vec<u32> = g.adj_row(center).to_vec();
    if g.adj_row(center).binary_search(&center).is_err() {
        verts.push(center);
    }
    let (graph, mapping) = induced_subgraph(g, &verts);
    let local_center = mapping
        .binary_search(&center)
        .expect("center is in its own egonet") as u32;
    Egonet {
        graph,
        mapping,
        center: local_center,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// K4 plus a pendant vertex 4 attached to 0.
    fn k4_pendant() -> Graph {
        Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    }

    #[test]
    fn egonet_of_hub() {
        let g = k4_pendant();
        let e = egonet(&g, 0);
        assert_eq!(e.mapping, vec![0, 1, 2, 3, 4]);
        assert_eq!(e.center_degree(), 4);
        // triangles at 0: the three pairs among {1,2,3}
        assert_eq!(e.triangles_at_center(), 3);
    }

    #[test]
    fn egonet_of_pendant() {
        let g = k4_pendant();
        let e = egonet(&g, 4);
        assert_eq!(e.mapping, vec![0, 4]);
        assert_eq!(e.center_degree(), 1);
        assert_eq!(e.triangles_at_center(), 0);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = k4_pendant();
        let (s, map) = induced_subgraph(&g, &[1, 2, 4]);
        assert_eq!(map, vec![1, 2, 4]);
        assert_eq!(s.num_edges(), 1); // only {1,2} survives
        assert!(s.has_edge(0, 1));
    }

    #[test]
    fn induced_subgraph_preserves_loops() {
        let g = Graph::from_edges(3, [(0, 0), (0, 1), (1, 2)]);
        let (s, _) = induced_subgraph(&g, &[0, 1]);
        assert_eq!(s.num_self_loops(), 1);
        assert_eq!(s.num_edges(), 1);
    }

    #[test]
    fn egonet_triangle_count_matches_half_wedge_closure() {
        // center of a 5-star with one closed pair
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]);
        let e = egonet(&g, 0);
        assert_eq!(e.triangles_at_center(), 1);
    }
}

//! Breadth-first search, connected components, spanning trees.

use crate::{Graph, UnionFind};
use std::collections::VecDeque;

/// BFS distances from `src`; unreachable vertices get `u32::MAX`.
pub fn bfs_distances(g: &Graph, src: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for u in g.neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Connected components (self loops irrelevant): returns
/// `(component_count, component_id_per_vertex)` with ids dense from 0 in
/// order of smallest contained vertex.
pub fn connected_components(g: &Graph) -> (usize, Vec<u32>) {
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    for (u, v) in g.edges() {
        uf.union(u, v);
    }
    let mut ids = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut comp = vec![0u32; n];
    for v in 0..n as u32 {
        let r = uf.find(v) as usize;
        if ids[r] == u32::MAX {
            ids[r] = next;
            next += 1;
        }
        comp[v as usize] = ids[r];
    }
    (next as usize, comp)
}

/// Whether the graph is connected (vacuously true for `n ≤ 1`).
pub fn is_connected(g: &Graph) -> bool {
    connected_components(g).0 <= 1
}

/// An arbitrary spanning forest as a list of edges (one tree per
/// component), found by union–find over the edge list. Used by the paper's
/// §III-D strategy (a): edges of a spanning tree are protected while
/// sparsifying triangles.
pub fn spanning_tree(g: &Graph) -> Vec<(u32, u32)> {
    let mut uf = UnionFind::new(g.num_vertices());
    let mut tree = Vec::new();
    for (u, v) in g.edges() {
        if uf.union(u, v) {
            tree.push((u, v));
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles() -> Graph {
        // components {0,1,2} and {3,4,5}
        Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    }

    #[test]
    fn bfs_path_graph() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = two_triangles();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[3], u32::MAX);
    }

    #[test]
    fn components() {
        let (c, ids) = connected_components(&two_triangles());
        assert_eq!(c, 2);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[3], ids[5]);
        assert_ne!(ids[0], ids[3]);
        assert!(!is_connected(&two_triangles()));
    }

    #[test]
    fn isolated_vertices_are_components() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let (c, _) = connected_components(&g);
        assert_eq!(c, 3);
    }

    #[test]
    fn spanning_tree_size() {
        let g = two_triangles();
        let t = spanning_tree(&g);
        assert_eq!(t.len(), 4); // n - #components = 6 - 2
        let forest = Graph::from_edges(6, t);
        let (c, _) = connected_components(&forest);
        assert_eq!(c, 2);
    }

    #[test]
    fn connected_singleton_and_empty() {
        assert!(is_connected(&Graph::empty(1)));
        assert!(is_connected(&Graph::empty(0)));
        assert!(!is_connected(&Graph::empty(2)));
    }
}

//! Property-based tests for the graph substrate: construction invariants,
//! conversion roundtrips, traversal consistency.

use kron_graph::{
    bfs_distances, connected_components, egonet, read_edge_list, spanning_tree, write_edge_list,
    DiGraph, Graph,
};
use proptest::prelude::*;

fn arb_edges(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(n * 3)).prop_map(move |e| (n, e))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_always_produces_valid_graphs((n, edges) in arb_edges(12)) {
        let g = Graph::from_edges(n, edges);
        prop_assert!(g.check_invariants().is_ok());
        // nnz identity
        prop_assert_eq!(g.nnz(), 2 * g.num_edges() + g.num_self_loops());
        // degree sum identity
        let degsum: u64 = g.degree_vector().iter().sum();
        prop_assert_eq!(degsum, 2 * g.num_edges());
    }

    #[test]
    fn io_roundtrip((n, edges) in arb_edges(12)) {
        let g = Graph::from_edges(n, edges);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        // isolated vertices are compacted away; edge structure must agree
        prop_assert_eq!(h.num_edges(), g.num_edges());
        prop_assert_eq!(h.num_self_loops(), g.num_self_loops());
    }

    #[test]
    fn csr_roundtrip((n, edges) in arb_edges(12)) {
        let g = Graph::from_edges(n, edges);
        prop_assert_eq!(Graph::from_csr(&g.to_csr()), g);
    }

    #[test]
    fn digraph_roundtrip((n, arcs) in arb_edges(12)) {
        let d = DiGraph::from_arcs(n, arcs);
        prop_assert!(d.check_invariants().is_ok());
        prop_assert_eq!(DiGraph::from_csr(&d.to_csr()), d.clone());
        // decomposition partitions the arcs
        let r = d.reciprocal_part();
        let recip_nnz = 2 * r.num_edges() + r.num_self_loops();
        prop_assert_eq!(recip_nnz + d.directed_part().num_arcs(), d.num_arcs());
    }

    #[test]
    fn spanning_tree_spans((n, edges) in arb_edges(12)) {
        let g = Graph::from_edges(n, edges);
        let tree = spanning_tree(&g);
        let (comps, ids) = connected_components(&g);
        prop_assert_eq!(tree.len(), n - comps);
        // the forest connects exactly what the graph connects
        let forest = Graph::from_edges(n, tree);
        let (fc, fids) = connected_components(&forest);
        prop_assert_eq!(fc, comps);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(ids[u] == ids[v], fids[u] == fids[v]);
            }
        }
    }

    #[test]
    fn bfs_distances_are_metric((n, edges) in arb_edges(10)) {
        let g = Graph::from_edges(n, edges);
        let d = bfs_distances(&g, 0);
        prop_assert_eq!(d[0], 0);
        // neighbors differ by at most 1
        for (u, v) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != u32::MAX && dv != u32::MAX {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                prop_assert_eq!(du, dv); // both unreachable
            }
        }
    }

    #[test]
    fn egonet_is_induced((n, edges) in arb_edges(10), pick in 0u32..10) {
        let g = Graph::from_edges(n, edges);
        let center = pick % n as u32;
        let e = egonet(&g, center);
        prop_assert_eq!(e.mapping[e.center as usize], center);
        prop_assert_eq!(e.center_degree(), g.degree(center));
        // every egonet edge exists in the host
        for (u, v) in e.graph.edges() {
            prop_assert!(g.has_edge(e.mapping[u as usize], e.mapping[v as usize]));
        }
    }

    #[test]
    fn loop_edits_compose((n, edges) in arb_edges(10)) {
        let g = Graph::from_edges(n, edges);
        let stripped = g.without_self_loops();
        prop_assert_eq!(stripped.num_self_loops(), 0);
        prop_assert_eq!(stripped.num_edges(), g.num_edges());
        let all: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(
            stripped.with_self_loops_at(&all),
            stripped.with_all_self_loops()
        );
        prop_assert_eq!(g.with_all_self_loops().without_self_loops(), stripped);
    }
}

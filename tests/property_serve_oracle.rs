//! Differential conformance suite for the serving answer sources.
//!
//! The paper's Theorem-1/2 closed forms are executable here three ways:
//! the on-disk artifact walk (`AnswerSource::Artifact`), the factor-copy
//! oracle (`AnswerSource::Oracle`), and the linear-algebraic matrix
//! oracle in `kron_triangles::matrix_oracle` evaluated on the
//! materialized product. For randomized small factor pairs, all three
//! must agree on *every* vertex and *every* edge query — and a
//! cross-check engine replaying the full query grid must record zero
//! mismatches.

use kron::KronProduct;
use kron_graph::Graph;
use kron_serve::{AnswerSource, OpenOptions, ServeEngine};
use kron_stream::{stream_product, OutputFormat, StreamConfig};
use kron_triangles::matrix_oracle::{edge_participation_formula, vertex_participation_formula};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An arbitrary undirected graph on 2..=6 vertices, loops allowed.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=6).prop_flat_map(move |n| {
        let pair = (0..n as u32, 0..n as u32);
        proptest::collection::vec(pair, 1..=(n * n / 2).max(2))
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

/// A unique scratch directory per generated case.
fn case_dir() -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kron_prop_serve_oracle_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path, source: AnswerSource) -> ServeEngine {
    ServeEngine::open_with(
        dir,
        &OpenOptions {
            source,
            ..OpenOptions::default()
        },
    )
    .expect("open engine")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Artifact walk ≡ factor-copy oracle ≡ matrix oracle, on every
    /// vertex and edge query of a randomized sharded product.
    #[test]
    fn answer_sources_agree_with_the_matrix_oracle(
        a in arb_graph(),
        b in arb_graph(),
        shards in 1usize..5,
    ) {
        let c = KronProduct::new(a, b);
        let dir = case_dir();
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = shards;
        stream_product(&c, &cfg).unwrap();

        let artifact = open(&dir, AnswerSource::Artifact);
        let oracle = open(&dir, AnswerSource::Oracle);
        let cross_check = open(&dir, AnswerSource::CrossCheck);

        // The independent referee: Defs. 5/6 evaluated by sparse matrix
        // algebra on the materialized product.
        let g = c.materialize(1 << 22).unwrap();
        let t_ref = vertex_participation_formula(&g);
        let delta_ref = edge_participation_formula(&g);

        let n = c.num_vertices();
        for v in 0..n {
            let vu = v as usize;
            let want_deg = g.degree(v as u32);
            prop_assert_eq!(artifact.degree(v).unwrap(), want_deg);
            prop_assert_eq!(oracle.degree(v).unwrap(), want_deg);
            prop_assert_eq!(cross_check.degree(v).unwrap(), want_deg);

            let want_row: Vec<u64> = g.adj_row(v as u32).iter().map(|&x| x as u64).collect();
            prop_assert_eq!(artifact.neighbors(v).unwrap().as_ref(), want_row.as_slice());
            prop_assert_eq!(oracle.neighbors(v).unwrap().as_ref(), want_row.as_slice());
            prop_assert_eq!(cross_check.neighbors(v).unwrap().as_ref(), want_row.as_slice());

            prop_assert_eq!(artifact.vertex_triangles(v).unwrap(), t_ref[vu], "t_C({})", v);
            prop_assert_eq!(oracle.vertex_triangles(v).unwrap(), t_ref[vu]);
            prop_assert_eq!(cross_check.vertex_triangles(v).unwrap(), t_ref[vu]);

            for q in 0..n {
                let want_edge = g.has_edge(v as u32, q as u32);
                prop_assert_eq!(artifact.has_edge(v, q).unwrap(), want_edge);
                prop_assert_eq!(oracle.has_edge(v, q).unwrap(), want_edge);
                prop_assert_eq!(cross_check.has_edge(v, q).unwrap(), want_edge);

                // Δ formula drops the diagonal, so an existing loop slot
                // reads back 0 — exactly the serving convention Some(0).
                let want_delta =
                    want_edge.then(|| delta_ref.get(vu, q as usize));
                prop_assert_eq!(artifact.edge_triangles(v, q).unwrap(), want_delta);
                prop_assert_eq!(oracle.edge_triangles(v, q).unwrap(), want_delta);
                prop_assert_eq!(cross_check.edge_triangles(v, q).unwrap(), want_delta);
            }
        }

        // The cross-check engine saw the full query grid: a fresh run
        // directory must reconcile clean.
        prop_assert_eq!(cross_check.mismatch_count(), 0);
        prop_assert!(cross_check.mismatches().is_empty());
        // …and the pure-oracle engine never touched a shard.
        prop_assert_eq!(oracle.routing().total_fetches(), 0);

        std::fs::remove_dir_all(&dir).ok();
    }
}

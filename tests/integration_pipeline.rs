//! End-to-end pipeline tests: generation → serialization → reload →
//! implicit product → streaming → statistics — the full workflow a
//! benchmark author would run.

use kron::{human_count, validate, KronChain, KronProduct};
use kron_gen::deterministic::clique;
use kron_gen::{holme_kim, rmat, RmatParams};
use kron_graph::{read_edge_list_path, write_edge_list_path};

#[test]
fn generate_save_reload_product() {
    let dir = std::env::temp_dir().join("kron_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = holme_kim(300, 3, 0.7, 1);
    let b = rmat(7, 4, RmatParams::graph500(), 2);
    let pa = dir.join("a.tsv");
    let pb = dir.join("b.tsv");
    write_edge_list_path(&a, &pa).unwrap();
    write_edge_list_path(&b, &pb).unwrap();
    let a2 = read_edge_list_path(&pa).unwrap();
    let b2 = read_edge_list_path(&pb).unwrap();
    // reload may compact isolated vertices away; edge structure must match
    assert_eq!(a2.num_edges(), a.num_edges());

    let c = KronProduct::new(a2, b2);
    validate::spot_check(&c, 25, 3).unwrap();
    // streaming generation touches exactly nnz entries
    assert_eq!(c.adjacency_entries().count() as u128, c.nnz());
}

#[test]
fn streamed_edges_are_real_edges() {
    let a = holme_kim(40, 2, 0.5, 4);
    let b = clique(5);
    let c = KronProduct::new(a, b);
    let mut count = 0u128;
    for (p, q) in c.adjacency_entries() {
        assert!(c.has_edge(p, q), "streamed non-edge ({p},{q})");
        count += 1;
    }
    assert_eq!(count, c.nnz());
}

#[test]
fn table_rows_format_like_the_paper() {
    let a = holme_kim(1000, 3, 0.7, 5);
    let c = KronProduct::new(a.clone(), a.clone());
    let stats = c.stats();
    let row = stats.table_row("A x A");
    assert!(row.contains("A x A"));
    assert!(row.contains('M')); // millions of edges at this scale
    assert_eq!(human_count(stats.vertices), "1.0M");
}

#[test]
fn four_factor_chain_scales_counts_multiplicatively() {
    // Graph500-flavored usage: a chain of small factors giving a large
    // graph with fully known statistics.
    let f = holme_kim(12, 2, 0.7, 6);
    let chain = KronChain::new(vec![f.clone(); 4]).unwrap();
    assert_eq!(chain.num_vertices(), (12u128).pow(4));
    let tau_f = kron_triangles::count_triangles(&f).triangles as u128;
    assert_eq!(chain.total_triangles(), 6u128.pow(3) * tau_f.pow(4));
    // index roundtrip at the extremes
    let last = chain.num_vertices() - 1;
    assert_eq!(chain.compose(&chain.split(last)), last);
    assert_eq!(chain.compose(&chain.split(0)), 0);
}

#[test]
fn compressibility_claim() {
    // §I: |E| edges represented in O(|E|^{1/2}) memory. The implicit
    // representation stores only the factors.
    let a = holme_kim(5000, 3, 0.7, 7);
    let c = KronProduct::new(a.clone(), a.clone());
    let factor_entries = a.nnz() as u128 * 2;
    let product_entries = c.nnz();
    assert!(product_entries > 10_000 * factor_entries);
    // and product statistics remain exact at that scale
    validate::spot_check(&c, 10, 8).unwrap();
}

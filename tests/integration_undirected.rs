//! Cross-crate integration tests for the undirected Kronecker pipeline:
//! generators → implicit product → exact statistics → validation against
//! full materialization (the paper's §III results end to end).

use kron::{validate, KronProduct};
use kron_gen::deterministic::{clique, clique_with_loops, cycle, hub_cycle, star};
use kron_gen::{erdos_renyi, holme_kim};
use kron_graph::Graph;
use kron_triangles::{count_triangles, vertex_participation};

#[test]
fn example_1a_full_sweep() {
    // Ex. 1(a): K_nA ⊗ K_nB closed forms across a size sweep.
    for na in 3..=6u64 {
        for nb in 3..=6u64 {
            let c = KronProduct::new(clique(na as usize), clique(nb as usize));
            let nm = na * nb;
            let deg = nm + 1 - na - nb;
            let t = deg * (nm + 4 - 2 * na - 2 * nb) / 2;
            for p in 0..c.num_vertices() {
                assert_eq!(c.degree(p), deg);
                assert_eq!(c.vertex_triangles(p), t);
            }
            validate::validate_undirected(&c, 1 << 22).unwrap();
        }
    }
}

#[test]
fn example_1c_is_complete_graph() {
    // Ex. 1(c): (J_nA ⊗ J_nB) − I = K_{nA·nB}.
    let c = KronProduct::new(clique_with_loops(4), clique_with_loops(5));
    let g = c.materialize(1 << 22).unwrap().without_self_loops();
    let k20 = clique(20);
    assert_eq!(g, k20);
}

#[test]
fn web_like_miniature_of_section_vi() {
    // The §VI experiment in miniature: A = scale-free clustered graph,
    // B = A + I; check the table arithmetic exactly on a materializable
    // scale and the formulas' internal consistency.
    let a = holme_kim(60, 3, 0.7, 42);
    let b = a.with_all_self_loops();
    let tau_a = count_triangles(&a).triangles as u128;

    let caa = KronProduct::new(a.clone(), a.clone());
    assert_eq!(caa.num_vertices(), 60 * 60);
    assert_eq!(caa.nnz(), (a.nnz() as u128).pow(2));
    assert_eq!(caa.total_triangles(), 6 * tau_a * tau_a);
    validate::validate_undirected(&caa, 1 << 26).unwrap();

    let cab = KronProduct::new(a.clone(), b.clone());
    // loops in B only: Cor. 1 / Cor. 2 apply
    assert_eq!((a.num_self_loops(), b.num_self_loops()), (0, 60));
    // τ(A⊗B) = ⅓·(Σt_A)·(Σdiag(B³)) = τ(A)·(6τ(A) + 6m + n)
    let m = a.num_edges() as u128;
    let n = a.num_vertices() as u128;
    assert_eq!(cab.total_triangles(), tau_a * (6 * tau_a + 6 * m + n));
    validate::validate_undirected(&cab, 1 << 26).unwrap();

    // A⊗B strictly boosts triangles over A⊗A (Rem. 3)
    assert!(cab.total_triangles() > caa.total_triangles());
}

#[test]
fn fig7_egonet_pattern_in_miniature() {
    // Fig. 7's structure: pick vertices of A with equal degree d and
    // t = 1, 2, 3 triangles; their product pairs in A⊗A have degree d²
    // and t_C = 2·t_i·t_j.
    let a = holme_kim(120, 3, 0.8, 7);
    let t = vertex_participation(&a);
    let mut chosen: Vec<u32> = Vec::new();
    for want in 1..=3u64 {
        if let Some(v) =
            (0..a.num_vertices() as u32).find(|&v| a.degree(v) == 3 && t[v as usize] == want)
        {
            chosen.push(v);
        }
    }
    assert_eq!(chosen.len(), 3, "factor must contain the Fig. 7 pattern");
    let c = KronProduct::new(a.clone(), a.clone());
    let ix = c.indexer();
    for &u in &chosen {
        for &v in &chosen {
            let p = ix.compose(u, v);
            let ego = c.egonet(p);
            assert_eq!(ego.center_degree(), 9); // 3 × 3
            assert_eq!(ego.triangles_at_center(), 2 * t[u as usize] * t[v as usize]);
            assert_eq!(ego.triangles_at_center(), c.vertex_triangles(p));
        }
    }
}

#[test]
fn triangle_free_factor_kills_all_triangles() {
    // τ(C) = 6·τ(A)·τ(B): one triangle-free factor zeroes the product.
    let a = holme_kim(40, 2, 0.9, 3);
    assert!(count_triangles(&a).triangles > 0);
    for b in [star(7), cycle(6), Graph::from_edges(4, [(0, 1), (2, 3)])] {
        let c = KronProduct::new(a.clone(), b);
        assert_eq!(c.total_triangles(), 0);
        assert_eq!(c.vertex_triangles(0), 0);
    }
}

#[test]
fn spot_check_random_products_at_scale() {
    // egonet validation on products too large to enumerate
    let a = erdos_renyi(3000, 0.004, 5);
    let b = holme_kim(2500, 3, 0.6, 6);
    let c = KronProduct::new(a, b);
    assert!(c.nnz() > 100_000_000);
    validate::spot_check(&c, 40, 17).unwrap();
}

#[test]
fn hub_cycle_product_headline_numbers() {
    // Ex. 2 headline: C = A ⊗ A has 25 vertices, 128 edges, 96 triangles.
    let c = KronProduct::new(hub_cycle(), hub_cycle());
    assert_eq!(c.num_vertices(), 25);
    assert_eq!(c.num_edges(), 128);
    assert_eq!(c.total_triangles(), 96);
    // Δ histogram via the Kronecker formula: 32 edges with 1 triangle,
    // 64 with 2, 32 with 4 (cycle-cycle / mixed / hub-hub classes).
    let g = c.materialize(1 << 16).unwrap();
    let mut hist = std::collections::BTreeMap::new();
    for (u, v) in g.edges() {
        let d = c.edge_triangles(u as u64, v as u64).unwrap();
        *hist.entry(d).or_insert(0u32) += 1;
    }
    assert_eq!(hist.get(&1), Some(&32));
    assert_eq!(hist.get(&2), Some(&64));
    assert_eq!(hist.get(&4), Some(&32));
}

#[test]
fn degree_and_triangle_distributions_at_scale() {
    use kron::distributions::{ccdf, degree_histogram, triangle_histogram};
    let a = holme_kim(800, 3, 0.7, 9);
    let b = holme_kim(700, 2, 0.5, 10);
    let c = KronProduct::new(a.clone(), b.clone());
    let dh = degree_histogram(&c);
    assert_eq!(dh.values().sum::<u128>(), c.num_vertices() as u128);
    // max degree in the histogram equals the closed-form max degree
    assert_eq!(*dh.keys().max().unwrap(), c.max_degree());
    // the paper's squaring: max ratio multiplies
    let ra = a.max_degree() as f64 / a.num_vertices() as f64;
    let rb = b.max_degree() as f64 / b.num_vertices() as f64;
    assert!((kron::distributions::max_degree_ratio(&c) - ra * rb).abs() < 1e-12);
    let th = triangle_histogram(&c);
    assert_eq!(th.values().sum::<u128>(), c.num_vertices() as u128);
    let cc = ccdf(&dh);
    assert_eq!(cc.first().unwrap().1, c.num_vertices() as u128);
}

#[test]
fn associativity_via_chain() {
    use kron::KronChain;
    // (A ⊗ B) stats from KronProduct agree with the 2-chain
    let a = hub_cycle();
    let b = clique(4);
    let c2 = KronProduct::new(a.clone(), b.clone());
    let chain = KronChain::new(vec![a, b]).unwrap();
    assert_eq!(chain.num_vertices(), c2.num_vertices() as u128);
    assert_eq!(chain.total_triangles(), c2.total_triangles());
    for p in 0..c2.num_vertices() {
        assert_eq!(
            chain.vertex_triangles(p as u128),
            c2.vertex_triangles(p) as u128
        );
        assert_eq!(chain.degree(p as u128), c2.degree(p) as u128);
    }
}

#[test]
fn wedge_checks_are_pinned_on_seeded_holme_kim_graphs() {
    // The §VI accounting: the comparisons the degree-ordered sweep makes.
    // A change to the merge loop that counts differently shows here.
    for (n, m, seed, triangles, checks) in [
        (500, 3, 1, 784, 2477),
        (2000, 4, 2, 4697, 21441),
        (5000, 5, 3, 15620, 96622),
    ] {
        let count = count_triangles(&holme_kim(n, m, 0.7, seed));
        assert_eq!(
            (count.triangles, count.wedge_checks),
            (triangles, checks),
            "holme_kim({n}, {m}, 0.7, {seed})"
        );
    }
}

//! Degree and triangle distributions of the product, derived from factor
//! histograms (§III-A of the paper).
//!
//! `d_C = d_A ⊗ d_B` means the degree *histogram* of `C` is the
//! multiplicative convolution of the factor histograms — computable in
//! `O(#distinct_A · #distinct_B)` without touching the `n_A·n_B` product.
//! The same trick applies to the triangle participation histogram via the
//! four-term general formula. The paper's observations follow: products of
//! heavy-tailed factors are heavy-tailed, and the max-degree/n ratio
//! *squares* (`‖d_C‖_∞/n_C = (‖d_A‖_∞/n_A)·(‖d_B‖_∞/n_B)` for loop-free
//! factors).

use crate::factor_stats::FactorTerms;
use crate::KronProduct;
use std::collections::{BTreeMap, HashMap};

/// The exact degree histogram of `C` (`degree → vertex count`), from
/// factor joint histograms over `(rowlen, loop)` pairs.
pub fn degree_histogram(c: &KronProduct) -> BTreeMap<u64, u128> {
    let (a, b) = c.factors();
    let joint = |g: &kron_graph::Graph| -> HashMap<(u64, u64), u128> {
        let mut h = HashMap::new();
        for v in 0..g.num_vertices() as u32 {
            let s = u64::from(g.has_self_loop(v));
            *h.entry((g.degree(v) + s, s)).or_insert(0u128) += 1;
        }
        h
    };
    let (ha, hb) = (joint(a), joint(b));
    let mut out = BTreeMap::new();
    for (&(ra, sa), &ca) in &ha {
        for (&(rb, sb), &cb) in &hb {
            let d = ra * rb - sa * sb;
            *out.entry(d).or_insert(0) += ca * cb;
        }
    }
    out
}

/// The exact triangle-participation histogram of `C` (`t → vertex count`),
/// from factor joint histograms over the general-formula term tuples.
pub fn triangle_histogram(c: &KronProduct) -> BTreeMap<u64, u128> {
    // t_C(p) depends only on the factor vertices' terms
    // (diag(X³), diag(X²D_X), diag(XD_XX), loop), so group each factor's
    // vertices by that tuple, evaluate the formula once per class pair
    // on a representative, and weight by the class sizes.
    let classes = |t: &FactorTerms| {
        let mut m: HashMap<_, (u32, u128)> = HashMap::new();
        for v in 0..t.s.len() {
            let key = (t.diag3[v], t.v2[v], t.v3[v], t.s[v]);
            m.entry(key).or_insert((v as u32, 0)).1 += 1;
        }
        m.into_values().collect::<Vec<_>>()
    };
    let ix = c.indexer();
    let mut out = BTreeMap::new();
    for (i, ca) in classes(&c.va) {
        for &(k, cb) in &classes(&c.vb) {
            let t = c.vertex_triangles(ix.compose(i, k));
            *out.entry(t).or_insert(0u128) += ca * cb;
        }
    }
    out
}

/// Complementary cumulative counts: entries `(x, #vertices with value ≥ x)`
/// in increasing `x` — the standard heavy-tail plot.
pub fn ccdf(hist: &BTreeMap<u64, u128>) -> Vec<(u64, u128)> {
    let mut out: Vec<(u64, u128)> = Vec::with_capacity(hist.len());
    let mut acc = 0u128;
    for (&x, &c) in hist.iter().rev() {
        acc += c;
        out.push((x, acc));
    }
    out.reverse();
    out
}

/// The paper's "squaring" observation:
/// `‖d_C‖_∞ / n_C` (exact, from the factors).
pub fn max_degree_ratio(c: &KronProduct) -> f64 {
    c.max_degree() as f64 / c.num_vertices() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_gen::deterministic::clique;
    use kron_graph::Graph;
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
    fn histograms_match_direct_scan() {
        use kron_gen::deterministic::{clique_with_loops, hub_cycle};
        let mut rng = StdRng::seed_from_u64(111);
        let mut pairs: Vec<(Graph, Graph)> = (0..4)
            .map(|_| {
                (
                    random_graph(&mut rng, 7, 0.5, 0.3),
                    random_graph(&mut rng, 6, 0.5, 0.3),
                )
            })
            .collect();
        // self loops in both factors
        pairs.push((hub_cycle().with_all_self_loops(), clique_with_loops(4)));
        pairs.push((
            kron_gen::holme_kim(30, 2, 0.6, 4).with_all_self_loops(),
            random_graph(&mut StdRng::seed_from_u64(113), 9, 0.4, 0.5),
        ));
        for (a, b) in pairs {
            let c = KronProduct::new(a, b);
            // direct per-vertex scan of the (small) product
            let mut dh = BTreeMap::new();
            let mut th = BTreeMap::new();
            for p in 0..c.num_vertices() {
                *dh.entry(c.degree(p)).or_insert(0u128) += 1;
                *th.entry(c.vertex_triangles(p)).or_insert(0u128) += 1;
            }
            assert_eq!(degree_histogram(&c), dh);
            assert_eq!(triangle_histogram(&c), th);
        }
    }

    #[test]
    fn histogram_mass_is_vertex_count() {
        let c = KronProduct::new(clique(5), clique(7));
        let h = degree_histogram(&c);
        assert_eq!(h.values().sum::<u128>(), c.num_vertices() as u128);
        let t = triangle_histogram(&c);
        assert_eq!(t.values().sum::<u128>(), c.num_vertices() as u128);
    }

    #[test]
    fn max_ratio_squares_for_loop_free() {
        let mut rng = StdRng::seed_from_u64(112);
        let a = random_graph(&mut rng, 9, 0.4, 0.0);
        let b = random_graph(&mut rng, 8, 0.4, 0.0);
        let ra = a.max_degree() as f64 / a.num_vertices() as f64;
        let rb = b.max_degree() as f64 / b.num_vertices() as f64;
        let c = KronProduct::new(a, b);
        assert!((max_degree_ratio(&c) - ra * rb).abs() < 1e-12);
    }

    #[test]
    fn ccdf_is_monotone_and_anchored() {
        let c = KronProduct::new(clique(4), clique(5));
        let h = degree_histogram(&c);
        let cc = ccdf(&h);
        assert_eq!(cc.first().unwrap().1, c.num_vertices() as u128);
        for w in cc.windows(2) {
            assert!(w[0].1 >= w[1].1);
            assert!(w[0].0 < w[1].0);
        }
    }
}

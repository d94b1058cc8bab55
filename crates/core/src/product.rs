//! The implicit undirected Kronecker product graph `C = A ⊗ B`.

use crate::factor_stats::FactorTerms;
use crate::{KronError, ProductIndexer, ProductStats};
use kron_graph::{Graph, GraphBuilder};

/// The Kronecker product `C = A ⊗ B` of two undirected factors,
/// represented implicitly: `O(nnz(A) + nnz(B))` memory for an
/// `nnz(A)·nnz(B)`-entry graph.
///
/// Construction precomputes the per-factor statistic vectors once
/// (`O(Σ_edges min-degree)` — the triangle-counting cost on the *factors*),
/// after which every query is `O(1)`-ish:
///
/// * [`degree`](Self::degree), [`vertex_triangles`](Self::vertex_triangles) — O(1);
/// * [`edge_triangles`](Self::edge_triangles), [`has_edge`](Self::has_edge)
///   — two binary searches in factor rows.
///
/// The implementation always evaluates the *general* self-loop formulas of
/// §III-B/§III-C; with loop-free factors the correction terms are
/// identically zero, so Thm. 1/2 and Cor. 1/2 fall out as special cases
/// (the tests pin each case to its closed form).
pub struct KronProduct {
    pub(crate) a: Graph,
    pub(crate) b: Graph,
    pub(crate) ix: ProductIndexer,
    pub(crate) va: FactorTerms,
    pub(crate) vb: FactorTerms,
}

impl KronProduct {
    /// Build the implicit product, precomputing factor statistics.
    pub fn new(a: Graph, b: Graph) -> Self {
        let ix = ProductIndexer::new(a.num_vertices(), b.num_vertices());
        let va = FactorTerms::compute(&a);
        let vb = FactorTerms::compute(&b);
        Self { a, b, ix, va, vb }
    }

    /// The factors `(A, B)`.
    pub fn factors(&self) -> (&Graph, &Graph) {
        (&self.a, &self.b)
    }

    /// The index maps between product vertices and factor pairs.
    pub fn indexer(&self) -> ProductIndexer {
        self.ix
    }

    /// `n_C = n_A · n_B`.
    pub fn num_vertices(&self) -> u64 {
        self.ix.num_vertices()
    }

    /// Adjacency non-zeros of `C`: `nnz(A)·nnz(B)`.
    pub fn nnz(&self) -> u128 {
        self.a.nnz() as u128 * self.b.nnz() as u128
    }

    /// Self loops of `C`: one per pair of factor loops.
    pub fn num_self_loops(&self) -> u128 {
        self.a.num_self_loops() as u128 * self.b.num_self_loops() as u128
    }

    /// Undirected non-loop edges of `C` (each counted once) —
    /// `(nnz(C) − loops(C)) / 2`.
    pub fn num_edges(&self) -> u128 {
        (self.nnz() - self.num_self_loops()) / 2
    }

    /// Whether the product vertex `p` has a self loop (`C_pp = A_ii·B_kk`).
    pub fn has_self_loop(&self, p: u64) -> bool {
        let (i, k) = self.ix.split(p);
        self.va.s[i as usize] == 1 && self.vb.s[k as usize] == 1
    }

    /// Whether `{p, q}` is an edge of `C`:
    /// `C_pq = A_{i(p),i(q)} · B_{k(p),k(q)}`.
    pub fn has_edge(&self, p: u64, q: u64) -> bool {
        let (i, k) = self.ix.split(p);
        let (j, l) = self.ix.split(q);
        self.a.has_edge(i, j) && self.b.has_edge(k, l)
    }

    /// Degree of product vertex `p` (loops excluded, §III-A):
    /// `(d_A(i)+s_A(i))·(d_B(k)+s_B(k)) − s_A(i)·s_B(k)`, which reduces to
    /// `d_A(i)·d_B(k)` for loop-free factors.
    pub fn degree(&self, p: u64) -> u64 {
        let (i, k) = self.ix.split(p);
        self.va.rowlen[i as usize] * self.vb.rowlen[k as usize]
            - self.va.s[i as usize] * self.vb.s[k as usize]
    }

    /// Length of the adjacency row of `p` (degree plus loop).
    pub fn row_len(&self, p: u64) -> u64 {
        let (i, k) = self.ix.split(p);
        self.va.rowlen[i as usize] * self.vb.rowlen[k as usize]
    }

    /// Maximum degree `‖d_C‖_∞`, from the four loop-profile candidate
    /// combinations (no scan of the product).
    pub fn max_degree(&self) -> u64 {
        let candidates = |rowlen: &[u64], s: &[u64]| -> [Option<u64>; 2] {
            let mut best = [None, None];
            for (r, &si) in rowlen.iter().zip(s) {
                let slot = &mut best[si as usize];
                *slot = Some(slot.unwrap_or(0).max(*r));
            }
            best
        };
        let ca = candidates(&self.va.rowlen, &self.va.s);
        let cb = candidates(&self.vb.rowlen, &self.vb.s);
        let mut best = 0;
        for (sa, ra) in ca.iter().enumerate() {
            for (sb, rb) in cb.iter().enumerate() {
                if let (Some(ra), Some(rb)) = (ra, rb) {
                    best = best.max(ra * rb - (sa as u64) * (sb as u64));
                }
            }
        }
        best
    }

    /// Triangle participation of product vertex `p` — the paper's headline
    /// result, evaluated in `O(1)` from factor terms:
    ///
    /// `t_C(p) = ½[ diag(A³)_i·diag(B³)_k − 2·diag(A²D_A)_i·diag(B²D_B)_k
    ///              − diag(AD_AA)_i·diag(BD_BB)_k + 2·s_A(i)·s_B(k) ]`
    ///
    /// (Thm. 1 `t_C = 2·t_A ⊗ t_B` and Cor. 1 `t_C = t_A ⊗ diag(B³)` are
    /// the loop-free specializations.)
    pub fn vertex_triangles(&self, p: u64) -> u64 {
        let (i, k) = self.ix.split(p);
        let (i, k) = (i as usize, k as usize);
        let val = self.va.diag3[i] as i128 * self.vb.diag3[k] as i128
            - 2 * self.va.v2[i] as i128 * self.vb.v2[k] as i128
            - self.va.v3[i] as i128 * self.vb.v3[k] as i128
            + 2 * self.va.s[i] as i128 * self.vb.s[k] as i128;
        debug_assert!(val >= 0 && val % 2 == 0, "t_C must be a non-negative count");
        u64::try_from(val / 2).expect("vertex triangle count exceeds u64")
    }

    /// Total triangle participation `Σ_p t_C(p) = 3·τ(C)` — the quantity
    /// shard manifests and `run.json` record (each triangle is counted at
    /// its three corners), kept here so every consumer spells the
    /// convention the same way.
    pub fn total_triangle_participation(&self) -> u128 {
        3 * self.total_triangles()
    }

    /// Total triangles `τ(C) = ⅓·1ᵗt_C`, computed from factor sums (the
    /// no-loop case is the paper's `τ(C) = 6·τ(A)·τ(B)`).
    pub fn total_triangles(&self) -> u128 {
        let (a1, a2, a3, a4) = self.va.sums();
        let (b1, b2, b3, b4) = self.vb.sums();
        let tot =
            a1 as i128 * b1 as i128 - 2 * (a2 as i128) * (b2 as i128) - (a3 as i128) * (b3 as i128)
                + 2 * (a4 as i128) * (b4 as i128);
        debug_assert!(tot >= 0 && tot % 6 == 0, "Σt_C must be divisible by 6");
        (tot / 6) as u128
    }

    /// Triangle participation of the edge `{p, q}` (Thm. 2 / Cor. 2 /
    /// general §III-C), or `None` if `{p, q}` is not an edge of `C`.
    /// Self loops report `Some(0)` (the `Δ` diagonal is zero).
    pub fn edge_triangles(&self, p: u64, q: u64) -> Option<u64> {
        let (i, k) = self.ix.split(p);
        let (j, l) = self.ix.split(q);
        let sa = self.a.edge_slot(i, j)?;
        let sb = self.b.edge_slot(k, l)?;
        let (iu, ju, ku, lu) = (i as usize, j as usize, k as usize, l as usize);
        let e1 = self.va.had2[sa] as i128 * self.vb.had2[sb] as i128;
        let e2 = (self.va.s[iu] * self.vb.s[ku]) as i128;
        let e3 = (self.va.s[ju] * self.vb.s[lu]) as i128;
        let diag_a = i == j;
        let diag_b = k == l;
        let e4 = if diag_a && diag_b {
            (self.va.s[iu] * self.vb.s[ku]) as i128
        } else {
            0
        };
        let e5 = if diag_a && diag_b {
            (self.va.s[iu] * self.va.rowlen[iu] * self.vb.s[ku] * self.vb.rowlen[ku]) as i128
        } else {
            0
        };
        let val = e1 - e2 - e3 + 2 * e4 - e5;
        debug_assert!(val >= 0, "Δ_C must be non-negative, got {val}");
        Some(u64::try_from(val).expect("edge triangle count exceeds u64"))
    }

    /// Local clustering coefficient of product vertex `p`:
    /// `c(p) = 2·t_C(p) / (d_C(p)·(d_C(p)−1))` — the §I motivating
    /// statistic, exact at any scale; `0.0` for degree < 2.
    pub fn local_clustering(&self, p: u64) -> f64 {
        let d = self.degree(p);
        if d < 2 {
            return 0.0;
        }
        (2 * self.vertex_triangles(p)) as f64 / (d * (d - 1)) as f64
    }

    /// Total wedges (2-paths) of `C`: `Σ_p C(d_C(p), 2)`, in closed form
    /// from the factor degree sequences — pairs with
    /// [`Self::total_triangles`] to give the exact global transitivity.
    pub fn total_wedges(&self) -> u128 {
        // Σ over (i,k) of C(d,2) with d = rowlen_i·rowlen_k − s_i·s_k;
        // group by distinct (rowlen, s) pairs per factor.
        let classes = |rowlen: &[u64], s: &[u64]| {
            let mut m = std::collections::HashMap::<(u64, u64), u128>::new();
            for (&r, &si) in rowlen.iter().zip(s) {
                *m.entry((r, si)).or_insert(0) += 1;
            }
            m
        };
        let ca = classes(&self.va.rowlen, &self.va.s);
        let cb = classes(&self.vb.rowlen, &self.vb.s);
        let mut total = 0u128;
        for (&(ra, sa), &na) in &ca {
            for (&(rb, sb), &nb) in &cb {
                let d = (ra * rb - sa * sb) as u128;
                total += na * nb * (d * d.saturating_sub(1) / 2);
            }
        }
        total
    }

    /// Global transitivity `3·τ(C) / #wedges(C)` — exact, in closed form.
    pub fn transitivity(&self) -> f64 {
        let w = self.total_wedges();
        if w == 0 {
            0.0
        } else {
            (3 * self.total_triangles()) as f64 / w as f64
        }
    }

    /// The adjacency row of product vertex `p = (i, k)`, ascending:
    /// `N(p) = {γ(j, l) : j ∈ N_A(i), l ∈ N_B(k)}` (includes `p` itself if
    /// it has a loop). `γ(j, l) = j·n_B + l` ascends in `j`, then in `l`,
    /// so the row needs no sort. This is the one spelling of the
    /// product's row: [`Self::neighbors`], the row-block stream, egonets
    /// and every check of a stored row against the product read it.
    // Inlinable across crates: the census and verify call it once per row
    // (without it, `analyze` p50 read ~3% slower on a 2-core VM).
    #[inline]
    pub fn row(&self, p: u64) -> impl Iterator<Item = u64> + Clone + '_ {
        let (i, k) = self.ix.split(p);
        let (ix, rb) = (self.ix, self.b.adj_row(k));
        self.a.adj_row(i).iter().flat_map(move |&j| {
            let base = ix.compose(j, 0);
            rb.iter().map(move |&l| base + u64::from(l))
        })
    }

    /// [`Self::row`], materialized.
    pub fn neighbors(&self, p: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.row_len(p) as usize);
        out.extend(self.row(p));
        out
    }

    /// Sequentially iterate all adjacency entries `(p, q)` of `C` (each
    /// undirected edge appears in both orientations, each loop once) — the
    /// generator loop of the paper's §I, `nnz(A)·nnz(B)` items.
    pub fn adjacency_entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.a.adjacency_entries().flat_map(move |(i, j)| {
            self.b
                .adjacency_entries()
                .map(move |(k, l)| (self.ix.compose(i, k), self.ix.compose(j, l)))
        })
    }

    /// Materialize `C` as a concrete [`Graph`] for validation. Guarded:
    /// errors if the product has more than `limit` adjacency entries or
    /// more than `u32::MAX` vertices.
    pub fn materialize(&self, limit: u128) -> Result<Graph, KronError> {
        let entries = self.nnz();
        if entries > limit || self.num_vertices() > u32::MAX as u64 {
            return Err(KronError::TooLargeToMaterialize { entries, limit });
        }
        let mut builder =
            GraphBuilder::with_capacity(self.num_vertices() as usize, (entries / 2) as usize + 1);
        for (p, q) in self.adjacency_entries() {
            if p <= q {
                builder.add_edge(p as u32, q as u32);
            }
        }
        Ok(builder.build())
    }

    /// The §VI summary row: vertices / edges / triangles of `C`.
    pub fn stats(&self) -> ProductStats {
        ProductStats {
            vertices: self.num_vertices() as u128,
            edges: self.num_edges(),
            self_loops: self.num_self_loops(),
            triangles: self.total_triangles(),
        }
    }
}

impl std::fmt::Debug for KronProduct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KronProduct(A: {:?}, B: {:?}, C: {} vertices, {} edges)",
            self.a,
            self.b,
            self.num_vertices(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_gen::deterministic::{clique, clique_with_loops};
    use kron_triangles::{count_triangles, edge_participation, vertex_participation};
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

    /// Exhaustively compare the implicit product against a materialization.
    fn check_against_materialized(a: Graph, b: Graph) {
        let c = KronProduct::new(a, b);
        let g = c.materialize(1 << 24).expect("small enough");
        assert_eq!(g.num_vertices() as u64, c.num_vertices());
        assert_eq!(g.num_edges() as u128, c.num_edges());
        assert_eq!(g.num_self_loops() as u128, c.num_self_loops());
        // degrees
        for p in 0..c.num_vertices() {
            assert_eq!(g.degree(p as u32), c.degree(p), "degree({p})");
        }
        assert_eq!(g.max_degree(), c.max_degree());
        // vertex triangles (Thm. 1 / Cor. 1 / general)
        let t_direct = vertex_participation(&g);
        for p in 0..c.num_vertices() {
            assert_eq!(
                t_direct[p as usize],
                c.vertex_triangles(p),
                "t_C({p}) [factor loops {}, {}]",
                c.a.num_self_loops(),
                c.b.num_self_loops()
            );
        }
        // total
        assert_eq!(count_triangles(&g).triangles as u128, c.total_triangles());
        // edge triangles (Thm. 2 / Cor. 2 / general)
        let delta = edge_participation(&g);
        for (p, q) in g.adjacency_entries() {
            let slot = g.edge_slot(p, q).unwrap();
            assert_eq!(
                Some(delta[slot]),
                c.edge_triangles(p as u64, q as u64),
                "Δ_C({p},{q})"
            );
        }
        // non-edges
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let p = rng.gen_range(0..c.num_vertices());
            let q = rng.gen_range(0..c.num_vertices());
            assert_eq!(g.has_edge(p as u32, q as u32), c.has_edge(p, q));
            if !c.has_edge(p, q) {
                assert_eq!(c.edge_triangles(p, q), None);
            }
        }
        // neighbors
        for p in 0..c.num_vertices() {
            assert_eq!(
                c.neighbors(p),
                g.adj_row(p as u32)
                    .iter()
                    .map(|&x| x as u64)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn example_1a_cliques_no_loops() {
        // Ex. 1(a): C = K_nA ⊗ K_nB
        for (na, nb) in [(3, 4), (4, 5), (5, 3)] {
            let c = KronProduct::new(clique(na), clique(nb));
            let (na, nb) = (na as u64, nb as u64);
            let deg = na * nb + 1 - na - nb;
            let t = deg * (na * nb + 4 - 2 * na - 2 * nb) / 2;
            let de = na * nb + 4 - 2 * na - 2 * nb;
            for p in 0..c.num_vertices() {
                assert_eq!(c.degree(p), deg);
                assert_eq!(c.vertex_triangles(p), t);
            }
            let (p, q) = {
                // any product edge: (0,1) in A × (0,1) in B
                let ix = c.indexer();
                (ix.compose(0, 0), ix.compose(1, 1))
            };
            assert_eq!(c.edge_triangles(p, q), Some(de));
            assert_eq!((c.a.num_self_loops(), c.b.num_self_loops()), (0, 0));
        }
    }

    #[test]
    fn example_1b_loops_in_second_factor() {
        // Ex. 1(b): C = K_nA ⊗ J_nB — t = ½(n_An_B − n_B)(n_An_B − 2n_B),
        // Δ_edge = n_An_B − 2n_B. The paper prints the degree as
        // "n_An_B − n_A", but its own §III-A formula d_C = d_A·(d_B + 1)
        // = (n_A − 1)·n_B = n_An_B − n_B (consistent with the t and Δ
        // values, and with materialization) — we follow the formula; this
        // comment is the erratum's record.
        for (na, nb) in [(3, 4), (5, 3), (4, 4)] {
            let c = KronProduct::new(clique(na), clique_with_loops(nb));
            let (nau, nbu) = (na as u64, nb as u64);
            let nm = nau * nbu;
            let _ = nau;
            for p in 0..c.num_vertices() {
                assert_eq!(c.degree(p), nm - nbu, "degree Ex 1(b)");
                assert_eq!(
                    c.vertex_triangles(p),
                    (nm - nbu) * (nm - 2 * nbu) / 2,
                    "t Ex 1(b) na={na} nb={nb}"
                );
            }
            assert_eq!((c.a.num_self_loops(), c.b.num_self_loops()), (0, nbu));
            // every product edge sees n_An_B − 2n_B triangles
            let ix = c.indexer();
            let (p, q) = (ix.compose(0, 0), ix.compose(1, 0));
            assert_eq!(c.edge_triangles(p, q), Some(nm - 2 * nbu));
        }
    }

    #[test]
    fn example_1c_loops_in_both_factors() {
        // Ex. 1(c): (J_nA ⊗ J_nB) − I = K_{nA·nB}: degree nm−1,
        // t = C(nm−1, 2), Δ = nm−2 — but here we keep the loops (C = J⊗J)
        // and check the general formulas against materialization, plus the
        // loop-free clique identities on the materialized drop-diagonal.
        let c = KronProduct::new(clique_with_loops(3), clique_with_loops(4));
        assert_eq!((c.a.num_self_loops(), c.b.num_self_loops()), (3, 4));
        let nm = 12u64;
        for p in 0..c.num_vertices() {
            // J⊗J has a loop everywhere; degree (paper convention) nm−1
            assert!(c.has_self_loop(p));
            assert_eq!(c.degree(p), nm - 1);
            // t_C counts loop-free triangles: the clique value C(nm−1, 2)
            assert_eq!(c.vertex_triangles(p), (nm - 1) * (nm - 2) / 2);
        }
        assert_eq!(
            c.total_triangles(),
            (nm as u128) * ((nm - 1) as u128) * ((nm - 2) as u128) / 6
        );
        // off-diagonal edges carry nm − 2 triangles; loops carry 0
        let ix = c.indexer();
        assert_eq!(
            c.edge_triangles(ix.compose(0, 0), ix.compose(1, 2)),
            Some(nm - 2)
        );
        assert_eq!(
            c.edge_triangles(ix.compose(0, 0), ix.compose(0, 0)),
            Some(0)
        );
    }

    #[test]
    fn randomized_no_loops() {
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..6 {
            let na = rng.gen_range(2..8);
            let a = random_graph(&mut rng, na, 0.5, 0.0);
            let nb = rng.gen_range(2..8);
            let b = random_graph(&mut rng, nb, 0.5, 0.0);
            check_against_materialized(a, b);
        }
    }

    #[test]
    fn randomized_loops_in_b() {
        let mut rng = StdRng::seed_from_u64(62);
        for _ in 0..6 {
            let na = rng.gen_range(2..8);
            let a = random_graph(&mut rng, na, 0.5, 0.0);
            let nb = rng.gen_range(2..8);
            let b = random_graph(&mut rng, nb, 0.5, 0.5);
            check_against_materialized(a, b);
        }
    }

    #[test]
    fn randomized_loops_in_a() {
        let mut rng = StdRng::seed_from_u64(63);
        for _ in 0..6 {
            let na = rng.gen_range(2..8);
            let a = random_graph(&mut rng, na, 0.5, 0.5);
            let nb = rng.gen_range(2..8);
            let b = random_graph(&mut rng, nb, 0.5, 0.0);
            check_against_materialized(a, b);
        }
    }

    #[test]
    fn randomized_loops_in_both() {
        let mut rng = StdRng::seed_from_u64(64);
        for _ in 0..6 {
            let na = rng.gen_range(2..8);
            let a = random_graph(&mut rng, na, 0.5, 0.5);
            let nb = rng.gen_range(2..8);
            let b = random_graph(&mut rng, nb, 0.5, 0.5);
            check_against_materialized(a, b);
        }
    }

    #[test]
    fn thm1_closed_form_on_loop_free_factors() {
        // t_C = 2·t_A ⊗ t_B and τ(C) = 6·τ(A)·τ(B)
        let mut rng = StdRng::seed_from_u64(65);
        let a = random_graph(&mut rng, 9, 0.5, 0.0);
        let b = random_graph(&mut rng, 7, 0.5, 0.0);
        let ta = vertex_participation(&a);
        let tb = vertex_participation(&b);
        let (taua, taub) = (count_triangles(&a).triangles, count_triangles(&b).triangles);
        let c = KronProduct::new(a, b);
        let ix = c.indexer();
        for i in 0..9u32 {
            for k in 0..7u32 {
                assert_eq!(
                    c.vertex_triangles(ix.compose(i, k)),
                    2 * ta[i as usize] * tb[k as usize]
                );
            }
        }
        assert_eq!(c.total_triangles(), 6 * taua as u128 * taub as u128);
    }

    #[test]
    fn cor1_closed_form_b_loops() {
        // t_C = t_A ⊗ diag(B³)
        let mut rng = StdRng::seed_from_u64(66);
        let a = random_graph(&mut rng, 8, 0.5, 0.0);
        let b = random_graph(&mut rng, 6, 0.5, 0.6);
        let ta = vertex_participation(&a);
        let d3b = kron_triangles::matrix_oracle::diag_cubed(&b);
        let c = KronProduct::new(a, b);
        let ix = c.indexer();
        for i in 0..8u32 {
            for k in 0..6u32 {
                assert_eq!(
                    c.vertex_triangles(ix.compose(i, k)),
                    ta[i as usize] * d3b[k as usize],
                    "Cor. 1 at ({i},{k})"
                );
            }
        }
    }

    #[test]
    fn materialize_guard() {
        let c = KronProduct::new(clique(40), clique(40));
        assert!(matches!(
            c.materialize(1000),
            Err(KronError::TooLargeToMaterialize { .. })
        ));
    }

    #[test]
    fn clustering_matches_direct() {
        let mut rng = StdRng::seed_from_u64(68);
        let a = random_graph(&mut rng, 7, 0.5, 0.3);
        let b = random_graph(&mut rng, 6, 0.5, 0.3);
        let c = KronProduct::new(a, b);
        let g = c.materialize(1 << 22).unwrap();
        let direct = kron_triangles::clustering::local_clustering(&g);
        for p in 0..c.num_vertices() {
            assert!((direct[p as usize] - c.local_clustering(p)).abs() < 1e-12);
        }
        let direct_t = kron_triangles::clustering::transitivity(&g);
        assert!((direct_t - c.transitivity()).abs() < 1e-12);
        // wedge count matches a direct scan
        let wedges: u128 = (0..g.num_vertices() as u32)
            .map(|v| {
                let d = g.degree(v) as u128;
                d * d.saturating_sub(1) / 2
            })
            .sum();
        assert_eq!(wedges, c.total_wedges());
        // Ex. 1(a) on a clique product, n=m=4: Δ = nm+4−2n−2m = 4 at every
        // edge, d = nm+1−n−m = 9 at every vertex
        let kc = KronProduct::new(clique(4), clique(4));
        let ix = kc.indexer();
        let (p, q) = (ix.compose(0, 0), ix.compose(1, 1));
        assert_eq!(kc.edge_triangles(p, q), Some(4));
        assert_eq!(kc.degree(p), 9);
        assert_eq!(kc.edge_triangles(p, p), None); // (0,0)x(0,0) loop absent
    }

    #[test]
    fn paper_table_arithmetic_shape() {
        // the §VI bookkeeping: A⊗A doubles the exponent of everything
        let a = clique(10);
        let c = KronProduct::new(a.clone(), a.clone());
        assert_eq!(c.num_vertices(), 100);
        assert_eq!(c.nnz(), (a.nnz() as u128).pow(2));
        assert_eq!(c.num_edges(), (a.nnz() as u128).pow(2) / 2);
        let tau_a = count_triangles(&a).triangles as u128;
        assert_eq!(c.total_triangles(), 6 * tau_a * tau_a);
        // the manifest convention: Σ t_C = 3·τ(C)
        assert_eq!(c.total_triangle_participation(), 18 * tau_a * tau_a);
    }
}

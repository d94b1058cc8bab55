//! Validation harness — the paper's §VI methodology as a library.
//!
//! Two modes:
//!
//! * [`validate_undirected`] materializes a (small) product and checks
//!   every Kronecker formula against direct computation with
//!   `kron-triangles` — the "building C entirely and explicitly checking
//!   the triangle statistics at each vertex" mode;
//! * [`spot_check`] never materializes `C`: it samples vertices and edges,
//!   extracts implicit egonets, and brute-force-counts local statistics
//!   from product adjacency rows — the "constructing individual egonets of
//!   vertices in C" mode, usable at any scale.

use crate::{KronError, KronProduct};
use kron_triangles::slice::intersect_excluding;
use kron_triangles::{count_triangles, edge_participation, vertex_participation};

/// SplitMix64 — a tiny deterministic PRNG so sampling needs no external
/// dependency in the library proper (`rand` stays dev-only here).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` by rejection-free modulo (bias negligible
    /// for validation sampling).
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

fn mismatch<T: std::fmt::Debug>(what: &str, at: impl std::fmt::Debug, a: T, b: T) -> KronError {
    KronError::ValidationMismatch(format!("{what} at {at:?}: direct = {a:?}, formula = {b:?}"))
}

/// Materialize `C` (guarded by `limit` adjacency entries) and verify every
/// undirected formula exactly: vertex/edge counts, degrees, `t_C`, `Δ_C`,
/// `τ(C)`.
pub fn validate_undirected(c: &KronProduct, limit: u128) -> Result<(), KronError> {
    let g = c.materialize(limit)?;
    if g.num_edges() as u128 != c.num_edges() {
        return Err(mismatch(
            "edge count",
            "C",
            g.num_edges() as u128,
            c.num_edges(),
        ));
    }
    if g.num_self_loops() as u128 != c.num_self_loops() {
        return Err(mismatch(
            "self-loop count",
            "C",
            g.num_self_loops() as u128,
            c.num_self_loops(),
        ));
    }
    let t = vertex_participation(&g);
    for p in 0..c.num_vertices() {
        if g.degree(p as u32) != c.degree(p) {
            return Err(mismatch("degree", p, g.degree(p as u32), c.degree(p)));
        }
        if t[p as usize] != c.vertex_triangles(p) {
            return Err(mismatch(
                "vertex triangles",
                p,
                t[p as usize],
                c.vertex_triangles(p),
            ));
        }
    }
    let delta = edge_participation(&g);
    for (u, v) in g.adjacency_entries() {
        let slot = g.edge_slot(u, v).expect("edge exists");
        let formula = c.edge_triangles(u as u64, v as u64);
        if Some(delta[slot]) != formula {
            return Err(mismatch(
                "edge triangles",
                (u, v),
                Some(delta[slot]),
                formula,
            ));
        }
    }
    let tau = count_triangles(&g).triangles as u128;
    if tau != c.total_triangles() {
        return Err(mismatch("total triangles", "C", tau, c.total_triangles()));
    }
    Ok(())
}

/// Sample `samples` product vertices (and one incident edge each, when
/// present) and verify degree, `t_C`, and `Δ_C` against brute-force local
/// counts computed from implicit adjacency rows — no materialization, so
/// this works on trillion-edge products exactly like the paper's Fig. 7
/// egonet checks.
///
/// Vertices whose egonet would exceed ~20k members are resampled (bounded
/// retries): brute-forcing a hub's egonet is quadratic in its degree,
/// and the paper's own Fig. 7 methodology validates at low-degree
/// vertices. Hub statistics are covered by [`validate_undirected`] at
/// materializable scale and by the exact formula tests.
pub fn spot_check(c: &KronProduct, samples: usize, seed: u64) -> Result<(), KronError> {
    const EGONET_CAP: u64 = 20_000;
    let mut rng = SplitMix64(seed);
    for _ in 0..samples {
        let mut p = rng.below(c.num_vertices());
        let mut retries = 0;
        while c.row_len(p) > EGONET_CAP && retries < 64 {
            p = rng.below(c.num_vertices());
            retries += 1;
        }
        if c.row_len(p) > EGONET_CAP {
            continue; // extraordinarily dense product; skip this sample
        }
        let ego = c.egonet(p);
        if ego.center_degree() != c.degree(p) {
            return Err(mismatch("degree", p, ego.center_degree(), c.degree(p)));
        }
        if ego.triangles_at_center() != c.vertex_triangles(p) {
            return Err(mismatch(
                "vertex triangles",
                p,
                ego.triangles_at_center(),
                c.vertex_triangles(p),
            ));
        }
        // pick one incident edge and brute-force its triangle count as
        // |N(p) ∩ N(q) \ {p, q}| from materialized product rows
        let nbrs = c.neighbors(p);
        if let Some(&q) = (!nbrs.is_empty()).then(|| &nbrs[rng.below(nbrs.len() as u64) as usize]) {
            if q == p {
                // sampled the self loop: Δ's diagonal is zero by definition
                if c.edge_triangles(p, p) != Some(0) {
                    return Err(mismatch(
                        "edge triangles",
                        (p, p),
                        Some(0),
                        c.edge_triangles(p, p),
                    ));
                }
                continue;
            }
            let (count, _) = intersect_excluding(&nbrs, &c.neighbors(q), p, q);
            let formula = c.edge_triangles(p, q);
            if Some(count) != formula {
                return Err(mismatch("edge triangles", (p, q), Some(count), formula));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_gen::deterministic::{clique, clique_with_loops, hub_cycle};
    use kron_gen::holme_kim;

    #[test]
    fn validates_clean_products() {
        for (a, b) in [
            (clique(4), clique(5)),
            (clique(4), clique_with_loops(4)),
            (clique_with_loops(3), clique_with_loops(4)),
            (hub_cycle(), hub_cycle()),
        ] {
            let c = KronProduct::new(a, b);
            validate_undirected(&c, 1 << 24).expect("all formulas hold");
            spot_check(&c, 20, 7).expect("spot checks hold");
        }
    }

    #[test]
    fn spot_check_scales_without_materializing() {
        // a product too big to materialize cheaply, spot-checked implicitly
        let a = holme_kim(2000, 3, 0.7, 1);
        let b = holme_kim(1500, 3, 0.7, 2).with_all_self_loops();
        let c = KronProduct::new(a, b);
        assert!(c.num_edges() > 50_000_000); // several 10^7 edges, implicit only
        spot_check(&c, 25, 11).expect("egonet checks pass at scale");
    }

    #[test]
    fn guard_propagates() {
        let c = KronProduct::new(clique(40), clique(40));
        assert!(matches!(
            validate_undirected(&c, 1000),
            Err(KronError::TooLargeToMaterialize { .. })
        ));
    }
}

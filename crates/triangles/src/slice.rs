//! Triangle kernels over borrowed sorted rows.
//!
//! The in-memory kernels in this crate walk a [`kron_graph::Graph`]'s
//! `u32` CSR. The serving path (`kron-serve`) answers the same statistics
//! off *on-disk* CSR shards, whose rows arrive as zero-copy `&[u64]`
//! slices out of a memory mapping. These kernels are the common core both
//! can share: sorted-merge intersection with the paper's loop-exclusion
//! convention (Rem. 3: a triangle never uses a self loop), plus the
//! wedge-check accounting the paper's §VI reports.
//!
//! Rows must be sorted ascending — exactly what `kron_stream::CsrMap`
//! hands out (its writer refuses anything else, and `verify-shards`
//! re-checks) for every shard row, in either format.

/// Whether a sorted row contains `v` (binary search).
#[inline]
pub fn contains_sorted(row: &[u64], v: u64) -> bool {
    row.binary_search(&v).is_ok()
}

/// Intersect two sorted rows, counting common values with `ex0` and `ex1`
/// excluded. Returns `(count, wedge_checks)`, where `wedge_checks` is the
/// number of comparisons the merge performed (the §VI accounting).
///
/// With `ex0 = u`, `ex1 = v` and the rows `N(u)`, `N(v)`, the count is
/// `|N(u) ∩ N(v) \ {u, v}|` — the per-edge triangle participation
/// `Δ[{u,v}]` of Def. 6, loop slots excluded per Rem. 3.
#[inline]
pub fn intersect_excluding(a: &[u64], b: &[u64], ex0: u64, ex1: u64) -> (u64, u64) {
    let (mut p, mut q) = (0, 0);
    let mut count = 0u64;
    let mut checks = 0u64;
    while p < a.len() && q < b.len() {
        checks += 1;
        match a[p].cmp(&b[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                let w = a[p];
                if w != ex0 && w != ex1 {
                    count += 1;
                }
                p += 1;
                q += 1;
            }
        }
    }
    (count, checks)
}

/// Per-edge triangle participation `Δ[{u,v}] = |N(u) ∩ N(v) \ {u, v}|`
/// from the two endpoints' sorted rows. Returns `(delta, wedge_checks)`.
///
/// The caller is responsible for `{u, v}` actually being an edge; for
/// `u == v` (a self loop) the Δ diagonal is zero by convention and this
/// returns `(0, 0)` without touching the rows.
#[inline]
pub fn edge_triangles_rows(row_u: &[u64], row_v: &[u64], u: u64, v: u64) -> (u64, u64) {
    if u == v {
        return (0, 0);
    }
    intersect_excluding(row_u, row_v, u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_participation;
    use kron_graph::Graph;

    /// Adapt a Graph's u32 rows to the u64 slice kernels.
    fn rows_u64(g: &Graph) -> Vec<Vec<u64>> {
        (0..g.num_vertices() as u32)
            .map(|v| g.adj_row(v).iter().map(|&u| u as u64).collect())
            .collect()
    }

    fn web() -> Graph {
        Graph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 0),
                (4, 2),
                (5, 5),
                (0, 0),
                (1, 6),
            ],
        )
    }

    #[test]
    fn contains_sorted_is_membership() {
        let row = [1u64, 4, 9, 16];
        assert!(contains_sorted(&row, 4));
        assert!(!contains_sorted(&row, 5));
        assert!(!contains_sorted(&[], 0));
    }

    #[test]
    fn intersect_excluding_counts_and_checks() {
        let a = [1u64, 2, 3, 5, 8];
        let b = [2u64, 3, 4, 8];
        let (n, checks) = intersect_excluding(&a, &b, u64::MAX, u64::MAX);
        assert_eq!(n, 3); // {2, 3, 8}
        assert!(checks >= 3 && checks <= (a.len() + b.len()) as u64);
        let (n, _) = intersect_excluding(&a, &b, 2, 8);
        assert_eq!(n, 1); // only 3 survives
        assert_eq!(intersect_excluding(&[], &b, 0, 0).0, 0);
    }

    #[test]
    fn edge_kernel_matches_edge_participation() {
        let g = web();
        let rows = rows_u64(&g);
        let delta = edge_participation(&g);
        for (u, v) in g.edges() {
            let (got, _) =
                edge_triangles_rows(&rows[u as usize], &rows[v as usize], u as u64, v as u64);
            assert_eq!(got, delta[g.edge_slot(u, v).unwrap()], "edge ({u},{v})");
        }
        // loop slots are zero without any row work
        assert_eq!(edge_triangles_rows(&rows[0], &rows[0], 0, 0), (0, 0));
    }

    #[test]
    fn randomized_agreement_with_graph_kernels() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..20 {
            let n = rng.gen_range(3..24);
            let edges: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|i| (i..n as u32).map(move |j| (i, j)))
                .filter(|_| rng.gen_bool(0.3))
                .collect();
            let g = Graph::from_edges(n, edges);
            let rows = rows_u64(&g);
            let delta = edge_participation(&g);
            for (u, v) in g.edges() {
                let (got, _) =
                    edge_triangles_rows(&rows[u as usize], &rows[v as usize], u as u64, v as u64);
                assert_eq!(got, delta[g.edge_slot(u, v).unwrap()]);
            }
        }
    }
}

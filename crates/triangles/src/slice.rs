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

/// Per-vertex triangle participation `t(v)` from `v`'s sorted row and a
/// row oracle for its neighbors: `t(v) = ½·Σ_{u ∈ N(v), u≠v} Δ[{v,u}]`
/// (the row-sum identity below Def. 6). Returns `(t, wedge_checks)`, or
/// `Err(u)` for the first neighbor whose row the oracle could not
/// produce (for an in-memory graph that is unreachable; for the serving
/// path it means a corrupt artifact lists a vertex outside every shard).
///
/// `row_of(u)` returns `u`'s sorted adjacency row as any borrowable
/// handle — a zero-copy `&[u64]` out of a mapping, or an owned
/// `Arc<[u64]>` out of a hot-row cache — so the serving path can mix
/// both per neighbor. On a consistent graph `Σ_u Δ[{v,u}]` is even
/// (every triangle at `v` is seen from both incident edges); on a
/// *tampered* artifact the symmetry can break, and the floor division
/// then yields a deterministic (wrong) count for a cross-checking caller
/// to flag, rather than a panic.
pub fn vertex_triangles_rows<F, R>(row_v: &[u64], v: u64, mut row_of: F) -> Result<(u64, u64), u64>
where
    F: FnMut(u64) -> Option<R>,
    R: std::ops::Deref<Target = [u64]>,
{
    let mut twice_t = 0u64;
    let mut checks = 0u64;
    for &u in row_v {
        if u == v {
            continue; // the self loop spawns no wedges (Rem. 3)
        }
        let row_u = row_of(u).ok_or(u)?;
        let (delta, c) = intersect_excluding(row_v, &row_u, v, u);
        twice_t += delta;
        checks += c;
    }
    Ok((twice_t / 2, checks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edge_participation, vertex_participation};
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
    fn vertex_kernel_matches_vertex_participation() {
        let g = web();
        let rows = rows_u64(&g);
        let t = vertex_participation(&g);
        for v in 0..g.num_vertices() {
            let (got, checks) =
                vertex_triangles_rows(&rows[v], v as u64, |u| Some(rows[u as usize].as_slice()))
                    .unwrap();
            assert_eq!(got, t[v], "vertex {v}");
            if got > 0 {
                assert!(checks > 0);
            }
        }
    }

    #[test]
    fn vertex_kernel_reports_unresolvable_neighbor() {
        // the oracle cannot produce row 9: the kernel must name it
        let row_v = [1u64, 9];
        let other = [0u64, 2];
        let err =
            vertex_triangles_rows(&row_v, 0, |u| (u != 9).then_some(other.as_slice())).unwrap_err();
        assert_eq!(err, 9);
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
            let t = vertex_participation(&g);
            let delta = edge_participation(&g);
            for v in 0..n {
                let (got, _) = vertex_triangles_rows(&rows[v], v as u64, |u| {
                    Some(rows[u as usize].as_slice())
                })
                .unwrap();
                assert_eq!(got, t[v]);
            }
            for (u, v) in g.edges() {
                let (got, _) =
                    edge_triangles_rows(&rows[u as usize], &rows[v as usize], u as u64, v as u64);
                assert_eq!(got, delta[g.edge_slot(u, v).unwrap()]);
            }
        }
    }
}

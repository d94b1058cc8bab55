//! The workspace's one sorted-merge kernel, over borrowed sorted rows.
//!
//! Every count of common neighbours walks two ascending rows in step:
//! the in-memory kernels over a [`kron_graph::Graph`]'s `u32` factor
//! rows, the factor terms of the `kron` closed forms, the truss peel,
//! and the serving path (`kron-serve`), whose `u64` rows arrive as
//! zero-copy slices out of a memory-mapped CSR shard. [`merge_by`] is
//! that walk, generic over the row type and the order; the helpers
//! below add the paper's loop-exclusion convention (Rem. 3: a triangle
//! never uses a self loop) and report the comparisons the merge made,
//! which §VI calls wedge checks.
//!
//! The merge skips ahead: where one row's head is below the other's, it
//! passes every entry still below, four at a time, instead of one per
//! comparison. It reports the comparisons the one-step merge would have
//! made, `p + q − matches` at the end, so every wedge-check figure of
//! §VI reads the same as it did before the skip. Kronecker rows are runs
//! with long gaps between them, and the gaps are what the skip passes.
//!
//! Rows must be sorted ascending under the comparison used — exactly
//! what `kron_stream::CsrMap` hands out (its writer refuses anything
//! else, and `verify-shards` re-checks) for every shard row, in either
//! format, and what a `Graph` stores.

use std::cmp::Ordering;

/// Whether a sorted row contains `v` (binary search).
#[inline]
pub fn contains_sorted(row: &[u64], v: u64) -> bool {
    row.binary_search(&v).is_ok()
}

/// Merge two rows sorted ascending under `cmp`, calling `common(i, j)`
/// for every pair `a[i]`, `b[j]` that compares equal. Returns the number
/// of comparisons the one-step merge makes — the wedge checks of §VI.
///
/// A step that finds `a[p]` below `b[q]` does not stop at `p + 1`: it
/// skips every `a[p]` still below `b[q]`, four at a time while `a[p + 3]`
/// is below, then one at a time (and likewise for `q`). Those are states
/// the one-step merge passes through, and it ends in the same one, so
/// its count is `p + q − matches`: each of its comparisons advances `p`
/// or `q` by one, or both on a match. The time goes where a Kronecker
/// row has it — long skips between runs — and §VI's figures are the
/// one-step merge's, unchanged.
#[inline]
pub fn merge_by<T, C, F>(a: &[T], b: &[T], mut cmp: C, mut common: F) -> u64
where
    C: FnMut(&T, &T) -> Ordering,
    F: FnMut(usize, usize),
{
    let (mut p, mut q, mut matches) = (0, 0, 0);
    while p < a.len() && q < b.len() {
        match cmp(&a[p], &b[q]) {
            Ordering::Less => p = skip_while(a, p + 1, |x| cmp(x, &b[q]) == Ordering::Less),
            Ordering::Greater => q = skip_while(b, q + 1, |y| cmp(&a[p], y) == Ordering::Greater),
            Ordering::Equal => {
                common(p, q);
                p += 1;
                q += 1;
                matches += 1;
            }
        }
    }
    (p + q - matches) as u64
}

/// The first index at or after `i` whose element is not `below`, for a
/// `row` whose `below` elements form a prefix: four at a time, then one.
#[inline(always)]
fn skip_while<T>(row: &[T], mut i: usize, mut below: impl FnMut(&T) -> bool) -> usize {
    while i + 3 < row.len() && below(&row[i + 3]) {
        i += 4;
    }
    while i < row.len() && below(&row[i]) {
        i += 1;
    }
    i
}

/// Intersect two sorted rows, counting common values with `ex0` and `ex1`
/// excluded. Returns `(count, wedge_checks)`, where `wedge_checks` is the
/// number of comparisons the merge performed (the §VI accounting).
///
/// With `ex0 = u`, `ex1 = v` and the rows `N(u)`, `N(v)`, the count is
/// `|N(u) ∩ N(v) \ {u, v}|` — the per-edge triangle participation
/// `Δ[{u,v}]` of Def. 6, loop slots excluded per Rem. 3.
#[inline]
pub fn intersect_excluding<T: Ord + Copy>(a: &[T], b: &[T], ex0: T, ex1: T) -> (u64, u64) {
    let mut count = 0u64;
    let checks = merge_by(a, b, T::cmp, |i, _| {
        count += u64::from(a[i] != ex0 && a[i] != ex1);
    });
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

    /// The loop `intersect_excluding` ran before it was built on
    /// [`merge_by`]: the reference for the reported comparison count.
    fn reference_intersect(a: &[u64], b: &[u64], ex0: u64, ex1: u64) -> (u64, u64) {
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

    /// The merge [`merge_by`] ran before it skipped ahead: one comparison
    /// per step. The reference for its `common` calls and its count.
    fn one_step_merge<T>(
        a: &[T],
        b: &[T],
        mut cmp: impl FnMut(&T, &T) -> Ordering,
        mut common: impl FnMut(usize, usize),
    ) -> u64 {
        let (mut p, mut q, mut checks) = (0, 0, 0);
        while p < a.len() && q < b.len() {
            checks += 1;
            match cmp(&a[p], &b[q]) {
                Ordering::Less => p += 1,
                Ordering::Greater => q += 1,
                Ordering::Equal => {
                    common(p, q);
                    p += 1;
                    q += 1;
                }
            }
        }
        checks
    }

    /// `merge_by` and the one-step merge agree on `a`, `b` under `cmp`:
    /// the same `common` calls in the same order, and the same count.
    fn assert_same_merge<T: std::fmt::Debug>(a: &[T], b: &[T], cmp: impl Fn(&T, &T) -> Ordering) {
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let checks = one_step_merge(a, b, &cmp, |i, j| want.push((i, j)));
        let skipped = merge_by(a, b, &cmp, |i, j| got.push((i, j)));
        assert_eq!((got, skipped), (want, checks), "{a:?} ∩ {b:?}");
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let checks = one_step_merge(b, a, &cmp, |i, j| want.push((i, j)));
        let skipped = merge_by(b, a, &cmp, |i, j| got.push((i, j)));
        assert_eq!((got, skipped), (want, checks), "{b:?} ∩ {a:?}");
    }

    #[test]
    fn skipping_merge_matches_the_one_step_merge() {
        use rand::prelude::*;
        use std::collections::BTreeSet;
        let mut rng = StdRng::seed_from_u64(50);
        // sparse and dense random rows: dense ones skip runs longer than 4
        let random = |rng: &mut StdRng| -> Vec<u64> {
            let (len, range) = (rng.gen_range(0..80), rng.gen_range(1..400));
            let set: BTreeSet<u64> = (0..len).map(|_| rng.gen_range(0..range)).collect();
            set.into_iter().collect()
        };
        // a row of A ⊗ B: one run of B's row per entry of A's, with long
        // skips between runs
        let kron = |rng: &mut StdRng| -> Vec<u64> {
            let nb = 40;
            let (ra, rb) = (random(rng), random(rng));
            let rb: Vec<u64> = rb.into_iter().filter(|&l| l < nb).collect();
            ra.iter()
                .take(12)
                .flat_map(|&j| rb.iter().map(move |&l| j * nb + l))
                .collect()
        };
        let mut pairs = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![1, 5, 9], vec![2, 5, 9]),
            (vec![1, 2, 3], vec![1, 2, 3, 4, 5, 6, 7]),
            ((0..20).collect(), vec![3, 19]),
            ((0..20).collect(), (10..11).collect()),
            ((0..9).collect(), (100..130).collect()),
        ];
        for _ in 0..400 {
            pairs.push((random(&mut rng), random(&mut rng)));
            pairs.push((kron(&mut rng), kron(&mut rng)));
            let k = kron(&mut rng);
            let cut = rng.gen_range(0..=k.len());
            pairs.push((k[..cut].to_vec(), k));
        }
        // a non-natural order: a random rank of every value
        let mut rank: Vec<u64> = (0..20_000).collect();
        rank.shuffle(&mut rng);
        let by_rank = |x: &u64, y: &u64| rank[*x as usize].cmp(&rank[*y as usize]);
        for (a, b) in &pairs {
            assert_same_merge(a, b, u64::cmp);
            let (mut a, mut b) = (a.clone(), b.clone());
            a.sort_by(by_rank);
            b.sort_by(by_rank);
            assert_same_merge(&a, &b, by_rank);
        }
        // the degree order the in-memory counters merge in
        for _ in 0..10 {
            let n = rng.gen_range(10..60);
            let edges: Vec<(u32, u32)> = (0..n as u32)
                .flat_map(|i| (i..n as u32).map(move |j| (i, j)))
                .filter(|_| rng.gen_bool(0.4))
                .collect();
            let dag = crate::count::build_dag(&Graph::from_edges(n, edges));
            for u in 0..n as u32 {
                let ou = dag.out(u);
                for (i, &v) in ou.iter().enumerate() {
                    assert_same_merge(&ou[i + 1..], dag.out(v), dag.by_rank());
                }
            }
        }
    }

    #[test]
    fn merge_matches_brute_force_and_the_reference_loop_on_random_rows() {
        use rand::prelude::*;
        use std::collections::BTreeSet;
        let mut rng = StdRng::seed_from_u64(41);
        let row = |rng: &mut StdRng| -> Vec<u64> {
            let (len, range) = (rng.gen_range(0..40), rng.gen_range(1..120));
            let set: BTreeSet<u64> = (0..len).map(|_| rng.gen_range(0..range)).collect();
            set.into_iter().collect()
        };
        for _ in 0..500 {
            let (a, b) = (row(&mut rng), row(&mut rng));
            let expect: Vec<(usize, usize)> = a
                .iter()
                .enumerate()
                .filter_map(|(i, x)| b.iter().position(|y| y == x).map(|j| (i, j)))
                .collect();
            let mut pairs = Vec::new();
            let checks = merge_by(&a, &b, u64::cmp, |i, j| pairs.push((i, j)));
            assert_eq!(pairs, expect, "{a:?} ∩ {b:?}");
            // u32::MAX is in no row: no exclusion
            let none = u64::from(u32::MAX);
            let pick = |rng: &mut StdRng, row: &[u64]| match rng.gen_range(0..3) {
                0 if !row.is_empty() => row[rng.gen_range(0..row.len())],
                1 => rng.gen_range(0..120),
                _ => none,
            };
            let (ex0, ex1) = (pick(&mut rng, &a), pick(&mut rng, &b));
            for (ex0, ex1) in [(none, none), (ex0, ex1)] {
                let count = expect
                    .iter()
                    .filter(|&&(i, _)| a[i] != ex0 && a[i] != ex1)
                    .count() as u64;
                let reference = reference_intersect(&a, &b, ex0, ex1);
                assert_eq!(reference, (count, checks));
                assert_eq!(intersect_excluding(&a, &b, ex0, ex1), reference);
                let narrow = |r: &[u64]| r.iter().map(|&x| x as u32).collect::<Vec<u32>>();
                let (a32, b32) = (narrow(&a), narrow(&b));
                assert_eq!(
                    intersect_excluding(&a32, &b32, ex0 as u32, ex1 as u32),
                    reference
                );
            }
        }
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

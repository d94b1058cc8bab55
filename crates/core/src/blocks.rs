//! Row-block partitioning of the implicit product — the unit of
//! communication-free scale-out (§I of the paper, and the basis of the
//! `kron-stream` sharding subsystem).
//!
//! A *row block* is a contiguous range `[lo, hi)` of left-factor rows; it
//! owns every product vertex `p = i·n_B + k` with `i ∈ [lo, hi)` and every
//! adjacency entry of those vertices. Because each product row is the
//! Kronecker composition of one `A`-row with all of `B`, a block can be
//! generated from the factors alone — no communication with other blocks —
//! and all of its aggregate statistics (entry count, degree sum, triangle
//! participation sum) have closed forms at factor cost.

use crate::product::KronProduct;

/// Closed-form aggregate statistics of one contiguous left-factor row
/// block of the product — the checksums a generated shard is validated
/// against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowBlockStats {
    /// Left-factor rows `[lo, hi)` this block covers.
    pub rows: std::ops::Range<u32>,
    /// Product vertices `[lo·n_B, hi·n_B)` owned by the block.
    pub vertices: std::ops::Range<u64>,
    /// Adjacency entries in the block: `Σ_{i∈rows} rowlen_A(i) · nnz(B)`.
    pub nnz: u128,
    /// Self loops in the block: `loops_A(rows) · loops(B)`.
    pub self_loops: u128,
    /// `Σ_{p ∈ vertices} d_C(p)` (loops excluded) — equals `nnz − loops`.
    pub degree_sum: u128,
    /// `Σ_{p ∈ vertices} t_C(p)` — triangle participation over the block,
    /// from the general §III-B factor terms (sums to `3·τ(C)` over all
    /// blocks).
    pub triangle_sum: u128,
}

/// Most columns one run of [`RowRuns`] carries. A constant, not a knob:
/// large enough that per-run work (a sink's admission check, one
/// `write_all`) vanishes per entry, small enough that the buffer and a
/// sink's encoded copy of it stay in L1/L2 whatever the hub degree.
pub const RUN_CAPACITY: usize = 4096;

/// Generator of a row block's adjacency entries as **runs**: a run is a
/// slice of consecutive ascending columns of one product row. Runs come
/// in the order of [`KronProduct::adjacency_entries_in_rows`] — their
/// concatenation *is* that stream — a row of at most [`RUN_CAPACITY`]
/// entries arrives as one run, a longer (hub) row as several, and an
/// empty row as none. One buffer is reused for every run, so memory is
/// `O(RUN_CAPACITY)` however long the rows are.
pub struct RowRuns<'a> {
    product: &'a KronProduct,
    /// Product row in progress, as its factor pair `(i, k)`; the block
    /// ends at left-factor row `end`.
    i: u32,
    end: u32,
    k: u32,
    /// Position of the next entry within the row: index into `A.row(i)`
    /// and into `B.row(k)`.
    ja: usize,
    lb: usize,
    buf: Vec<u64>,
}

impl RowRuns<'_> {
    /// The next run as `(product vertex, columns)`, or `None` once the
    /// block is exhausted. The columns borrow the generator's buffer and
    /// are overwritten by the next call.
    pub fn next_run(&mut self) -> Option<(u64, &[u64])> {
        let (a, b, ix) = (&self.product.a, &self.product.b, &self.product.ix);
        let n_b = b.num_vertices() as u32;
        loop {
            if self.i >= self.end {
                return None;
            }
            let ra = a.adj_row(self.i);
            if self.k >= n_b || ra.is_empty() {
                (self.i, self.k) = (self.i + 1, 0);
                continue;
            }
            let rb = b.adj_row(self.k);
            if self.ja >= ra.len() || rb.is_empty() {
                (self.k, self.ja, self.lb) = (self.k + 1, 0, 0);
                continue;
            }
            self.buf.clear();
            let mut room = RUN_CAPACITY;
            while room > 0 && self.ja < ra.len() {
                let part = &rb[self.lb..rb.len().min(self.lb + room)];
                let base = ix.compose(ra[self.ja], 0);
                self.buf.extend(part.iter().map(|&l| base + u64::from(l)));
                room -= part.len();
                self.lb += part.len();
                if self.lb == rb.len() {
                    (self.ja, self.lb) = (self.ja + 1, 0);
                }
            }
            return Some((ix.compose(self.i, self.k), &self.buf));
        }
    }

    /// Capacity of the reused run buffer, in entries — what the memory
    /// guards assert stays `O(RUN_CAPACITY)`.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl KronProduct {
    /// Partition the left-factor rows `0..n_A` into `shards` contiguous
    /// blocks balanced by product-entry count (`nnz`), not row count —
    /// row `i` of `A` contributes `rowlen_A(i)·nnz(B)` entries, so
    /// boundaries are placed on the `rowlen_A` prefix sum.
    ///
    /// Always returns exactly `shards` ranges covering `0..n_A`
    /// disjointly, in order; when `shards > n_A` (or rows are heavy) some
    /// ranges are empty.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn partition_rows_by_nnz(&self, shards: usize) -> Vec<std::ops::Range<u32>> {
        assert!(shards > 0, "need at least one shard");
        let n_a = self.a.num_vertices() as u32;
        let total: u128 = self.a.nnz() as u128;
        let mut out = Vec::with_capacity(shards);
        let mut row = 0u32;
        let mut prefix: u128 = 0;
        for s in 0..shards as u128 {
            let lo = row;
            // rows join shard `s` until the prefix reaches its share
            let target = (total * (s + 1)) / shards as u128;
            while row < n_a && prefix < target {
                prefix += self.a.row_len(row) as u128;
                row += 1;
            }
            // zero-weight rows (isolated vertices) ride along with the
            // current shard so the last shard still ends at n_A
            if s + 1 == shards as u128 {
                row = n_a;
            }
            out.push(lo..row);
        }
        out
    }

    /// Closed-form aggregate statistics for the row block `rows` —
    /// computed from factor terms in `O(|rows| + n_B)`, never touching
    /// the product.
    ///
    /// # Panics
    /// Panics if `rows.end > n_A` or `rows.start > rows.end`.
    pub fn row_block_stats(&self, rows: std::ops::Range<u32>) -> RowBlockStats {
        let n_a = self.a.num_vertices() as u32;
        assert!(
            rows.start <= rows.end && rows.end <= n_a,
            "row block out of range"
        );
        let r = rows.start as usize..rows.end as usize;

        // Block-side partial sums of the A vertex terms…
        let sum = |v: &[u64]| -> u128 { v[r.clone()].iter().map(|&x| x as u128).sum() };
        let (a_rowlen, a_s) = (sum(&self.va.rowlen), sum(&self.va.s));
        let (a_diag3, a_v2, a_v3) = (sum(&self.va.diag3), sum(&self.va.v2), sum(&self.va.v3));
        // …against the full-factor sums on the B side.
        let (b_diag3, b_v2, b_v3, b_s) = self.vb.sums();
        let b_rowlen: u128 = self.vb.rowlen.iter().map(|&x| x as u128).sum();

        let nnz = a_rowlen * self.b.nnz() as u128;
        debug_assert_eq!(b_rowlen, self.b.nnz() as u128);
        let self_loops = a_s * self.b.num_self_loops() as u128;
        let degree_sum = nnz - self_loops;
        // Σ t_C over the block: ½[Σdiag3_A·Σdiag3_B − 2·Σv2_A·Σv2_B
        //                         − Σv3_A·Σv3_B + 2·Σs_A·Σs_B]
        let t2 = a_diag3 as i128 * b_diag3 as i128
            - 2 * a_v2 as i128 * b_v2 as i128
            - a_v3 as i128 * b_v3 as i128
            + 2 * a_s as i128 * b_s as i128;
        debug_assert!(
            t2 >= 0 && t2 % 2 == 0,
            "Σt_C must be a non-negative even value"
        );
        let triangle_sum = (t2 / 2) as u128;

        let n_b = self.ix.n_b();
        RowBlockStats {
            vertices: rows.start as u64 * n_b..rows.end as u64 * n_b,
            rows,
            nnz,
            self_loops,
            degree_sum,
            triangle_sum,
        }
    }

    /// Stream the adjacency entries of one row block in **product
    /// row-major order**: entries of product vertex `p` are emitted
    /// consecutively with ascending column ids, and vertices ascend —
    /// exactly the order a CSR writer needs for a single pass.
    ///
    /// Yields `Σ_{i∈rows} rowlen_A(i)·nnz(B)` entries.
    pub fn adjacency_entries_in_rows(
        &self,
        rows: std::ops::Range<u32>,
    ) -> impl Iterator<Item = (u64, u64)> + '_ {
        let n_b = self.ix.n_b();
        let vertices = u64::from(rows.start) * n_b..u64::from(rows.end) * n_b;
        vertices.flat_map(move |p| self.row(p).map(move |q| (p, q)))
    }

    /// The same stream as [`Self::adjacency_entries_in_rows`], a **run**
    /// at a time: see [`RowRuns`].
    pub fn runs_in_rows(&self, rows: std::ops::Range<u32>) -> RowRuns<'_> {
        RowRuns {
            product: self,
            i: rows.start,
            end: rows.end,
            k: 0,
            ja: 0,
            lb: 0,
            buf: Vec::with_capacity(RUN_CAPACITY),
        }
    }

    /// Closed-form adjacency-row lengths of every product vertex in the
    /// block, in vertex order — what a CSR writer lays its offsets out
    /// from, and admits runs against
    /// (`rowlen_C(i·n_B + k) = rowlen_A(i)·rowlen_B(k)`).
    pub fn row_lengths_in_rows(
        &self,
        rows: std::ops::Range<u32>,
    ) -> impl Iterator<Item = u64> + Clone + '_ {
        let n_b = self.b.num_vertices() as u32;
        rows.flat_map(move |i| {
            let ra = self.a.row_len(i);
            (0..n_b).map(move |k| ra * self.b.row_len(k))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_gen::deterministic::{clique, clique_with_loops};
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

    /// A random graph whose vertex 0 is a hub joined to every vertex but
    /// the last `isolated`, which have no entry at all.
    fn hub_graph(rng: &mut StdRng, n: usize, isolated: usize, p: f64, loop_p: f64) -> Graph {
        let live = (n - isolated) as u32;
        let mut edges: Vec<(u32, u32)> = (1..live).map(|v| (0, v)).collect();
        for i in 1..live {
            edges.extend(((i + 1)..live).filter(|_| rng.gen_bool(p)).map(|j| (i, j)));
            if rng.gen_bool(loop_p) {
                edges.push((i, i));
            }
        }
        Graph::from_edges(n, edges)
    }

    #[test]
    fn runs_concatenate_to_the_entry_stream_within_rows_and_capacity() {
        let mut rng = StdRng::seed_from_u64(44);
        for case in 0..4 {
            let a = hub_graph(&mut rng, 72 + case, 2, 0.03, 0.3);
            let b = hub_graph(&mut rng, 70, 3, 0.05, 0.3);
            let c = KronProduct::new(a, b);
            assert!(c.row_len(0) as usize > RUN_CAPACITY, "hub row must split");
            for rows in c.partition_rows_by_nnz(3) {
                let mut entries = c.adjacency_entries_in_rows(rows.clone());
                let mut runs = c.runs_in_rows(rows.clone());
                let mut by_row = std::collections::BTreeMap::<u64, Vec<u64>>::new();
                while let Some((p, cols)) = runs.next_run() {
                    assert!(!cols.is_empty() && cols.len() <= RUN_CAPACITY);
                    // every column is the stream's next entry *of row p*:
                    // the run neither reorders nor crosses a row
                    for &q in cols {
                        assert_eq!(entries.next(), Some((p, q)));
                    }
                    let row = by_row.entry(p).or_default();
                    // only a full run is ever followed by more of its row
                    assert_eq!(row.len() % RUN_CAPACITY, 0, "row {p} split early");
                    row.extend_from_slice(cols);
                }
                assert_eq!(entries.next(), None, "runs ended before the stream");
                for p in c.row_block_stats(rows).vertices {
                    let got = by_row.remove(&p).unwrap_or_default();
                    assert_eq!(got, c.neighbors(p), "row {p}");
                }
                assert!(by_row.is_empty(), "runs outside the block: {by_row:?}");
                assert!(runs.buffer_capacity() <= 2 * RUN_CAPACITY);
            }
        }
    }

    #[test]
    fn partitions_cover_rows_disjointly_for_any_shard_count() {
        let mut rng = StdRng::seed_from_u64(41);
        let a = random_graph(&mut rng, 17, 0.3, 0.2);
        let b = random_graph(&mut rng, 9, 0.4, 0.0);
        let c = KronProduct::new(a, b);
        for shards in [1, 2, 3, 5, 16, 17, 23, 100] {
            let plan = c.partition_rows_by_nnz(shards);
            assert_eq!(plan.len(), shards, "exactly `shards` ranges");
            assert_eq!(plan[0].start, 0);
            assert_eq!(plan.last().unwrap().end, 17);
            for w in plan.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous cover");
            }
            let nnz_sum: u128 = plan.iter().map(|r| c.row_block_stats(r.clone()).nnz).sum();
            assert_eq!(nnz_sum, c.nnz());
        }
    }

    #[test]
    fn partition_is_nnz_balanced_not_row_balanced() {
        // a star: row 0 has n−1 entries, every other row has 1
        let n = 64usize;
        let star = kron_gen::deterministic::star(n);
        let c = KronProduct::new(star, clique(4));
        let plan = c.partition_rows_by_nnz(2);
        // balanced by nnz, the hub row alone is half the work: shard 0
        // must be far fewer rows than shard 1
        let r0 = plan[0].end - plan[0].start;
        let r1 = plan[1].end - plan[1].start;
        assert!(r0 < 8, "hub shard holds few rows, got {r0}");
        assert!(r1 > 48, "leaf shard holds most rows, got {r1}");
        let s0 = c.row_block_stats(plan[0].clone());
        let s1 = c.row_block_stats(plan[1].clone());
        let imbalance = s0.nnz.max(s1.nnz) as f64 / (c.nnz() as f64 / 2.0);
        assert!(imbalance < 1.1, "nnz imbalance {imbalance}");
    }

    #[test]
    fn block_stats_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let a = random_graph(&mut rng, 8, 0.45, 0.3);
            let b = random_graph(&mut rng, 6, 0.45, 0.3);
            let c = KronProduct::new(a, b);
            let n_a = c.factors().0.num_vertices() as u32;
            for lo in 0..=n_a {
                for hi in lo..=n_a {
                    let s = c.row_block_stats(lo..hi);
                    let mut nnz = 0u128;
                    let mut degree_sum = 0u128;
                    let mut triangle_sum = 0u128;
                    let mut self_loops = 0u128;
                    for p in s.vertices.clone() {
                        nnz += c.row_len(p) as u128;
                        degree_sum += c.degree(p) as u128;
                        triangle_sum += c.vertex_triangles(p) as u128;
                        self_loops += u128::from(c.has_self_loop(p));
                    }
                    assert_eq!(s.nnz, nnz, "nnz [{lo},{hi})");
                    assert_eq!(s.degree_sum, degree_sum, "deg [{lo},{hi})");
                    assert_eq!(s.triangle_sum, triangle_sum, "tri [{lo},{hi})");
                    assert_eq!(s.self_loops, self_loops, "loops [{lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn full_block_recovers_global_statistics() {
        let c = KronProduct::new(clique_with_loops(5), clique(6));
        let n_a = 5u32;
        let s = c.row_block_stats(0..n_a);
        assert_eq!(s.nnz, c.nnz());
        assert_eq!(s.self_loops, c.num_self_loops());
        assert_eq!(s.triangle_sum, 3 * c.total_triangles());
    }

    #[test]
    fn row_major_stream_matches_flat_entries() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = random_graph(&mut rng, 7, 0.5, 0.2);
        let b = random_graph(&mut rng, 5, 0.5, 0.2);
        let c = KronProduct::new(a, b);
        // concatenated blocks = every adjacency entry, in row-major order
        let plan = c.partition_rows_by_nnz(3);
        let streamed: Vec<(u64, u64)> = plan
            .iter()
            .flat_map(|r| c.adjacency_entries_in_rows(r.clone()))
            .collect();
        assert_eq!(streamed.len() as u128, c.nnz());
        // row-major: p non-decreasing, columns ascending within a row
        for w in streamed.windows(2) {
            assert!(w[0].0 <= w[1].0, "vertices ascend");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "columns strictly ascend in a row");
            }
        }
        // same multiset as the generator loop
        let mut expect: Vec<(u64, u64)> = c.adjacency_entries().collect();
        let mut got = streamed.clone();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
        // and per-vertex row lengths agree with the closed form
        let lens: Vec<u64> = plan
            .iter()
            .flat_map(|r| c.row_lengths_in_rows(r.clone()))
            .collect();
        assert_eq!(lens.len() as u64, c.num_vertices());
        for (p, &len) in lens.iter().enumerate() {
            assert_eq!(len, c.row_len(p as u64), "row_len({p})");
        }
        assert_eq!(lens.iter().map(|&x| x as u128).sum::<u128>(), c.nnz());
    }
}

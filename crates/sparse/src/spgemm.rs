//! Sparse general matrix–matrix multiplication (SpGEMM).
//!
//! One kernel: Gustavson's row-by-row product with a **dense SPA**
//! (sparse accumulator) — a dense scratch vector of length `ncols` plus a
//! touched-column list. [`CsrMatrix::spgemm`] parallelizes it over row
//! chunks with rayon, one scratch buffer per chunk (not per row),
//! following the "workhorse collection" guidance of the Rust Performance
//! Book.

use crate::{CsrMatrix, Scalar};
use rayon::prelude::*;

/// Per-chunk output of the parallel kernel.
struct RowBlock<T> {
    first_row: usize,
    row_lens: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<T>,
}

/// Gustavson SpGEMM for a contiguous row range, using a caller-provided
/// dense accumulator (`acc`) and touched-list (`touched`); both are reset
/// between rows.
fn spgemm_rows_spa<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: std::ops::Range<usize>,
    acc: &mut [T],
    touched: &mut Vec<u32>,
) -> RowBlock<T> {
    let first_row = rows.start;
    let mut row_lens = Vec::with_capacity(rows.len());
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for i in rows {
        touched.clear();
        for (&k, &av) in a.row_indices(i).iter().zip(a.row_values(i)) {
            for (&j, &bv) in b
                .row_indices(k as usize)
                .iter()
                .zip(b.row_values(k as usize))
            {
                let cell = &mut acc[j as usize];
                if *cell == T::ZERO {
                    touched.push(j);
                }
                *cell = cell.add(av.mul(bv));
            }
        }
        touched.sort_unstable();
        let before = indices.len();
        for &j in touched.iter() {
            let v = acc[j as usize];
            acc[j as usize] = T::ZERO;
            if v != T::ZERO {
                indices.push(j);
                values.push(v);
            }
        }
        row_lens.push(indices.len() - before);
    }
    RowBlock {
        first_row,
        row_lens,
        indices,
        values,
    }
}

fn assemble<T: Scalar>(nrows: usize, ncols: usize, mut blocks: Vec<RowBlock<T>>) -> CsrMatrix<T> {
    blocks.sort_by_key(|b| b.first_row);
    let nnz: usize = blocks.iter().map(|b| b.indices.len()).sum();
    let mut offsets = Vec::with_capacity(nrows + 1);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    offsets.push(0);
    for b in blocks {
        debug_assert_eq!(b.first_row + 1, offsets.len());
        for len in b.row_lens {
            offsets.push(offsets.last().unwrap() + len);
        }
        indices.extend_from_slice(&b.indices);
        values.extend_from_slice(&b.values);
    }
    CsrMatrix::try_from_parts(nrows, ncols, offsets, indices, values)
        .expect("spgemm output is valid CSR")
}

impl<T: Scalar> CsrMatrix<T> {
    /// Sparse matrix product `A·B` (Prop. 1(d) context), parallelized over
    /// row chunks with rayon.
    ///
    /// # Panics
    /// Panics if `self.ncols() != other.nrows()`.
    pub fn spgemm(&self, other: &Self) -> Self {
        assert_eq!(
            self.ncols(),
            other.nrows(),
            "spgemm dimension mismatch: {}x{} * {}x{}",
            self.nrows(),
            self.ncols(),
            other.nrows(),
            other.ncols()
        );
        let nrows = self.nrows();
        let ncols = other.ncols();
        if nrows == 0 || self.nnz() == 0 || other.nnz() == 0 {
            return Self::zeros(nrows, ncols);
        }
        // Chunk so each task amortizes its scratch allocation; keep enough
        // chunks for load balance on skewed (power-law) inputs.
        let chunk = (nrows / (rayon::current_num_threads() * 8)).max(16);
        let starts: Vec<usize> = (0..nrows).step_by(chunk).collect();
        let blocks: Vec<RowBlock<T>> = starts
            .into_par_iter()
            .map(|start| {
                let end = (start + chunk).min(nrows);
                let mut acc = vec![T::ZERO; ncols];
                let mut touched = Vec::new();
                spgemm_rows_spa(self, other, start..end, &mut acc, &mut touched)
            })
            .collect();
        assemble(nrows, ncols, blocks)
    }

    /// `A^p` by repeated multiplication (`p ≥ 1`). Used for `A²`, `A³` in
    /// the triangle formulas.
    pub fn pow(&self, p: u32) -> Self {
        assert!(p >= 1, "pow requires p >= 1");
        assert_eq!(self.nrows(), self.ncols(), "pow of non-square matrix");
        let mut out = self.clone();
        for _ in 1..p {
            out = out.spgemm(self);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn dense_mul(a: &[Vec<i64>], b: &[Vec<i64>]) -> Vec<Vec<i64>> {
        let n = a.len();
        let m = b[0].len();
        let k = b.len();
        let mut c = vec![vec![0i64; m]; n];
        for i in 0..n {
            for kk in 0..k {
                if a[i][kk] == 0 {
                    continue;
                }
                for j in 0..m {
                    c[i][j] += a[i][kk] * b[kk][j];
                }
            }
        }
        c
    }

    fn random_dense(rng: &mut StdRng, n: usize, m: usize, density: f64) -> Vec<Vec<i64>> {
        (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| {
                        if rng.gen_bool(density) {
                            rng.gen_range(-3i64..=3)
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn small_known_product() {
        let a = CsrMatrix::<i64>::from_dense(&[vec![1, 2], vec![0, 3]]);
        let b = CsrMatrix::<i64>::from_dense(&[vec![4, 0], vec![5, 6]]);
        let c = a.spgemm(&b);
        assert_eq!(c.to_dense(), vec![vec![14, 12], vec![15, 18]]);
    }

    #[test]
    fn matches_dense_randomized() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let n = rng.gen_range(1..12);
            let k = rng.gen_range(1..12);
            let m = rng.gen_range(1..12);
            let da = random_dense(&mut rng, n, k, 0.4);
            let db = random_dense(&mut rng, k, m, 0.4);
            let a = CsrMatrix::from_dense(&da);
            let b = CsrMatrix::from_dense(&db);
            let expect = dense_mul(&da, &db);
            assert_eq!(a.spgemm(&b).to_dense(), expect);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(8);
        let d = random_dense(&mut rng, 9, 9, 0.3);
        let a = CsrMatrix::from_dense(&d);
        let i = CsrMatrix::<i64>::identity(9);
        assert_eq!(a.spgemm(&i), a);
        assert_eq!(i.spgemm(&a), a);
    }

    #[test]
    fn pow_matches_repeated() {
        let a = CsrMatrix::<i64>::from_dense(&[vec![0, 1, 1], vec![1, 0, 1], vec![1, 1, 0]]);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(2), a.spgemm(&a));
        assert_eq!(a.pow(3), a.spgemm(&a).spgemm(&a));
        // K3 cubed has 2s on the diagonal (each vertex in 1 triangle, doubled).
        assert_eq!(a.pow(3).diag(), vec![2, 2, 2]);
    }

    #[test]
    fn empty_operands() {
        let a = CsrMatrix::<u64>::zeros(3, 4);
        let b = CsrMatrix::<u64>::zeros(4, 2);
        let c = a.spgemm(&b);
        assert_eq!(c.nrows(), 3);
        assert_eq!(c.ncols(), 2);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn cancellation_dropped() {
        // a row that sums to zero must not be stored
        let a = CsrMatrix::<i64>::from_dense(&[vec![1, 1]]);
        let b = CsrMatrix::<i64>::from_dense(&[vec![2], vec![-2]]);
        let c = a.spgemm(&b);
        assert_eq!(c.nnz(), 0);
    }
}
